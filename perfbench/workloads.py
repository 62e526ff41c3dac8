"""Seeded inputs for the three benchmark workloads.

Every input is built from the workload name and ``--seed`` alone, so the
same seed gives the same spaces, files and command lines. The library
receives only the generated spaces and files.

Sizes are fixed per workload (the seed changes content, never the size
schedule), because size sets most of the cost; that keeps medians steady
from seed to seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import ultragh as ug

# Shared distance pool: both sides of a pair draw from it, so near-isometric
# copies and equal-diameter pairs are possible at all.
PAIR_POOL = tuple(ug.ExactValue(k, 8) for k in range(1, 17))
# Wide pool for the large files, so their spectra and grids are not trivial.
FILE_POOL = tuple(ug.ExactValue(k, 64) for k in range(1, 129))
FILE_SIZE_CAP = 256

# hard_small: shapes 2 <= n, m <= 6. The 15 shapes with |X|*|Y| <= 16
# (isometry_scan runs there) appear once per cycle and the 5 shapes with
# 24 <= |X|*|Y| <= 30 five times, so 37.5% of pairs run isometry_scan.
# Left out:
# - 6x6: one near-isometric 6x6 pair in 60 took over 2 s, enough to make
#   pairs_per_s depend on whether a seed draws one;
# - |X|*|Y| of 18 and 20: their isometry scan costs 2-4x more from one
#   draw to the next (3x6: median 28 ms, worst 61; 4x5: 23 and 88), and as
#   8% of pairs they would put p90 on the edge between them and the rest.
# p90 thus falls inside the 5x6 and 6x5 pairs, a quarter of the workload.
# Six cycles, 240 pairs: with three, which pairs a seed drew moved p90 by
# 12% (interquartile range over median, ten seeds) and pairs_per_s by 9%.
# They leave time for about two calls per pair in a 20 s phase.
_SMALL_SHAPES = [(n, m) for n in range(2, 7) for m in range(2, 7) if n * m <= 16]
_BIG_SHAPES = [(n, m) for n in range(2, 7) for m in range(2, 7) if 20 < n * m <= 30]
HARD_SHAPES = (_SMALL_SHAPES + _BIG_SHAPES * 5) * 6

# gap_mixed: the small random diameter-gap shapes are those with
# |X|*|Y| <= 20, each four times; with two, which pairs a seed drew moved
# the median by 10% (interquartile range over median, ten seeds). Above 20
# the classical branch-and-bound that dhat_gh runs on these pairs grows a
# tail: random 4x6 and 5x5 gap pairs took over a second in about 2% of
# draws, and one 5x6 pair took 8.8 s.
# The 12 large pairs (16..32 points a side) are 13% of all pairs, so p90
# falls among them, three ranks above the costliest small pair, and the
# counts are fixed, so it cannot flip to a small-pair value; most have
# |X|*|Y| near 320, so p90 sits on a plateau.
GAP_SMALL_SHAPES = [(n, m) for n in range(2, 7) for m in range(2, 7) if n * m <= 20] * 4
GAP_LARGE_SHAPES = [
    (16, 20), (20, 16), (18, 18), (17, 19), (19, 17),
    (16, 21), (21, 16), (18, 19), (19, 18), (16, 32),
]

# large_io: random files at three sizes next to the three named rings, in
# this order: random 64, 96, 128, then rings of 128, 256 and 243 points.
LARGE_RANDOM_SIZES = (64, 96, 128)
LARGE_RINGS = ((2, 1, 7), (2, 1, 8), (3, 1, 5))
# The CLI calls, as (command, file index). They use the files of 64-128
# points; every call parses its file, and calls on the 243- and 256-point
# files (1.3-1.5 s each) would leave room for only one round per run.
LARGE_CLI = (("validate", 0), ("spectra", 1), ("net", 2), ("lowerbound", 3), ("gen", 2))

WORKLOADS = ("hard_small", "gap_mixed", "large_io")


@dataclass
class Pair:
    name: str
    x: ug.UltrametricSpace
    y: ug.UltrametricSpace
    left: Optional[Path] = None
    right: Optional[Path] = None

    @property
    def product(self) -> int:
        return len(self.x) * len(self.y)


@dataclass
class SpaceFile:
    """A written `.ums` file, with the `gen` argv that regenerates it, if any."""

    path: Path
    space: ug.UltrametricSpace
    text: str
    gen_argv: list[str]


@dataclass
class Inputs:
    pairs: list[Pair] = field(default_factory=list)
    files: list[SpaceFile] = field(default_factory=list)


def _sub_seed(rng: random.Random) -> int:
    return rng.randrange(2 ** 31)


class InputFactory:
    """Builds one workload's inputs; ``gen`` wraps every generator call.

    ``span`` is a context-manager factory taking a layer name; the traced
    run passes its tracer's, the untraced run a no-op.
    """

    def __init__(self, workload: str, seed: int, workdir: Path, span: Callable):
        self.workload = workload
        self.rng = random.Random(f"{workload}:{seed}")
        self.workdir = workdir
        self.span = span

    def gen(self, fn, *args, **kwargs) -> ug.UltrametricSpace:
        with self.span("generators.gen"):
            return fn(*args, **kwargs)

    def build(self) -> Inputs:
        inputs = getattr(self, "_build_" + self.workload)()
        if self.workload != "large_io":
            # Pair workloads load and run the CLI on the pairs' own files.
            for i, pair in enumerate(inputs.pairs):
                left = self._write(f"p{i:03d}x.ums", pair.x, [])
                right = self._write(f"p{i:03d}y.ums", pair.y, [])
                pair.left, pair.right = left.path, right.path
                inputs.files += [left, right]
        return inputs

    def _write(self, name: str, space, gen_argv) -> SpaceFile:
        path = self.workdir / name
        text = ug.write_space(space)
        path.write_text(text)
        return SpaceFile(path, space, text, gen_argv)

    # -- pair factories ----------------------------------------------------

    def near_isometric_pair(self, n: int, m: int):
        """X and a copy Y that shares X's closed-t-ball quotient.

        X is a seeded random ultrametric on n points. A threshold t below
        diam X is drawn among those whose closed t-balls number at most m;
        Y keeps the quotient X_t (distances between classes are X's) and
        rebuilds every class from the seed with distances <= t, spreading m
        points over the classes. Then Y_t = X_t, so dhat <= t < diam X, and
        the classes carry distances above t, so diam Y = diam X: the pair
        lies in the hard case, dhat strictly below the larger diameter.
        """
        rng, pool = self.rng, PAIR_POOL
        for _ in range(100):
            x = self.gen(ug.random_ultrametric, n, _sub_seed(rng), pool)
            diam = x.diameter()
            options = []
            for t in pool:
                if t >= diam:
                    break
                classes = _closed_balls(x, t)
                if len(classes) <= m:
                    options.append((t, classes))
            if options:
                break
        else:
            raise RuntimeError(f"no near-isometric threshold for {n}x{m}")
        t, classes = rng.choice(options)
        sizes = [1] * len(classes)
        for _ in range(m - len(classes)):
            sizes[rng.randrange(len(classes))] += 1
        below = [v for v in pool if v <= t]
        blocks = [
            self.gen(ug.random_ultrametric, s, _sub_seed(rng), below) if s > 1 else None
            for s in sizes
        ]
        owner = [(c, k) for c, s in enumerate(sizes) for k in range(s)]
        rng.shuffle(owner)
        rows = [[ug.ZERO] * m for _ in range(m)]
        for a, (ca, ka) in enumerate(owner):
            for b, (cb, kb) in enumerate(owner):
                if a == b:
                    continue
                if ca == cb:
                    rows[a][b] = blocks[ca].dist(ka, kb)
                else:
                    rows[a][b] = x.dist(classes[ca][0], classes[cb][0])
        y = ug.validate_space(rows)
        if y.diameter() != diam:
            raise RuntimeError("near-isometric copy changed the diameter")
        return x, y

    def gap_pair(self, n: int, m: int):
        """Seeded random pair whose diameters differ."""
        for _ in range(100):
            x = self.gen(ug.random_ultrametric, n, _sub_seed(self.rng), PAIR_POOL)
            y = self.gen(ug.random_ultrametric, m, _sub_seed(self.rng), PAIR_POOL)
            if x.diameter() != y.diameter():
                return x, y
        raise RuntimeError(f"no diameter-gap pair for {n}x{m}")

    def family_pairs(self, large: bool) -> list[Pair]:
        """The paper's diameter-gap families; they do not depend on the seed."""
        g = self.gen
        if large:
            specs = [
                ("ring2^4~ball2^4",
                 (ug.truncated_unramified_ring, 2, 1, 4), (ug.truncated_scaled_ball, 2, 1, 1, 4)),
                ("zq_delta(5,2,4)~ring2^4",
                 (ug.zq_delta, 5, 2, 4), (ug.truncated_unramified_ring, 2, 1, 4)),
            ]
        else:
            specs = [
                ("ring3~zq_delta(3,2,1)",
                 (ug.truncated_unramified_ring, 3, 1, 1), (ug.zq_delta, 3, 2, 1)),
                ("ring2^2~ball2^2",
                 (ug.truncated_unramified_ring, 2, 1, 2), (ug.truncated_scaled_ball, 2, 1, 1, 2)),
                ("ring3~ball3",
                 (ug.truncated_unramified_ring, 3, 1, 1), (ug.truncated_scaled_ball, 3, 1, 1, 1)),
                ("zq_delta(5,3,1)~ring3",
                 (ug.zq_delta, 5, 3, 1), (ug.truncated_unramified_ring, 3, 1, 1)),
                ("zq_delta(3,2,2)~ring2^2",
                 (ug.zq_delta, 3, 2, 2), (ug.truncated_unramified_ring, 2, 1, 2)),
            ]
        return [Pair(name, g(*left), g(*right)) for name, left, right in specs]

    # -- workloads ---------------------------------------------------------

    def _build_hard_small(self) -> Inputs:
        shapes = list(HARD_SHAPES)
        self.rng.shuffle(shapes)
        pairs = [
            Pair(f"near{n}x{m}", *self.near_isometric_pair(n, m)) for n, m in shapes
        ]
        return Inputs(pairs=pairs)

    def _build_gap_mixed(self) -> Inputs:
        pairs = self.family_pairs(large=False) + self.family_pairs(large=True)
        for n, m in GAP_SMALL_SHAPES + GAP_LARGE_SHAPES:
            pairs.append(Pair(f"gap{n}x{m}", *self.gap_pair(n, m)))
        return Inputs(pairs=pairs)

    def _build_large_io(self) -> Inputs:
        files = []
        for k, n in enumerate(LARGE_RANDOM_SIZES):
            seed = _sub_seed(self.rng)
            space = self.gen(ug.random_ultrametric, n, seed, FILE_POOL,
                             size_cap=FILE_SIZE_CAP)
            argv = ["gen", "random", "--n", str(n), "--seed", str(seed),
                    "--pool", ",".join(v.token() for v in FILE_POOL),
                    "--size-cap", str(FILE_SIZE_CAP)]
            files.append(self._write(f"random{k}.ums", space, argv))
        for p, f, depth in LARGE_RINGS:
            space = self.gen(ug.truncated_unramified_ring, p, f, depth,
                             size_cap=FILE_SIZE_CAP)
            files.append(self._write(f"ring{p}_{f}_{depth}.ums", space, []))
        # A small control set, built from a fixed seed, so the pair metrics
        # exist here too without depending on --seed.
        control = InputFactory("large_io", 0, self.workdir, self.span)
        pairs = [
            Pair(f"near{n}x{m}", *control.near_isometric_pair(n, m))
            for n, m in ((3, 4), (4, 4), (4, 5), (5, 5))
        ] + control.family_pairs(large=False)
        return Inputs(pairs=pairs, files=files)


def _closed_balls(space: ug.UltrametricSpace, t) -> list[list[int]]:
    """Closed t-balls of an ultrametric space, by ascending first point."""
    seen = [False] * len(space)
    classes = []
    for i in range(len(space)):
        if seen[i]:
            continue
        cls = [j for j in range(len(space)) if space.dist(i, j) <= t]
        for j in cls:
            seen[j] = True
        classes.append(cls)
    return classes
