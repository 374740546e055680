"""Seeded inputs for the benchmark workloads.

Everything here uses only ``random.Random`` and ``fractions.Fraction`` from the
standard library and never calls the package's own ``random_*`` samplers, so
a workload seed yields byte-identical inputs on every commit, including
commits that change those samplers.

A batch is a list of ops plus the documents they read.  An op is the argv of
one ``strips_operad.cli.main`` call, with every path relative to the run's
work directory, and an ``expect`` entry that tells :mod:`verify` what a
correct output looks like.
"""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

DENOM = 4096          # grid for interval and rectangle endpoints
MIN_OPS = 100         # p90 needs ten samples beyond it


@dataclass
class Batch:
    chunks: list = field(default_factory=list)  # lists of ops, one per child
    docs: dict = field(default_factory=dict)    # relative path -> text

    @property
    def ops(self) -> list:
        return [op for chunk in self.chunks for op in chunk]

    def digest(self) -> str:
        """SHA-256 of the whole input set: every argv and every document."""
        h = hashlib.sha256()
        h.update(json.dumps([op["argv"] for op in self.ops]).encode())
        for name in sorted(self.docs):
            h.update(name.encode() + b"\0" + self.docs[name].encode() + b"\0")
        return h.hexdigest()


def _rng(workload: str, seed: int, part: str = "") -> random.Random:
    return random.Random(f"{workload}:{seed}:{part}")


# ---------------------------------------------------------------------------
# check workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckWorkload:
    """Runs of ``check <target>`` that share one ``--cases``.

    A run spends its time on many distinct ops, in children of ``chunk``
    ops, so that the seed-dependent cost of single cases does not decide a
    metric, and runs each op ``passes`` times.  ``rate`` is about how many op
    runs one second holds at the seed commit on a 2-CPU x86 host; it sizes
    the batch so that the passes fill the run."""

    target: str
    cases: int
    flags: tuple
    rate: float
    chunk: int
    passes: int

    def batch(self, name: str, seed: int, seconds: float) -> Batch:
        rng = _rng(name, seed)
        n_chunks = max(-(-MIN_OPS // self.chunk),
                       round(self.rate * seconds / self.passes / self.chunk))
        b = Batch()
        for k in range(n_chunks * self.chunk):
            if k % self.chunk == 0:
                b.chunks.append([])
            argv = ["check", self.target, "--seed", str(rng.randrange(2 ** 31)),
                    "--cases", str(self.cases), *self.flags,
                    "--out", f"out/check-{k}.json"]
            b.chunks[-1].append({"argv": argv,
                                 "expect": {"kind": "report", "out": argv[-1],
                                            "instance": self.target,
                                            "cases": self.cases}})
        return b


# ---------------------------------------------------------------------------
# cli-docs: plan, sheet and enumeration documents
# ---------------------------------------------------------------------------

def _rat(x: Fraction) -> str:
    return str(x)


def _cuts(rng: random.Random, n: int) -> list:
    """n disjoint increasing closed intervals [lo, hi] inside [0, 1]."""
    pts = sorted(rng.sample(range(DENOM + 1), 2 * n))
    return [(Fraction(pts[2 * k], DENOM), Fraction(pts[2 * k + 1], DENOM))
            for k in range(n)]


def _affine(lo: Fraction, hi: Fraction) -> tuple:
    """(scale, offset) of the increasing map of [0, 1] onto [lo, hi]."""
    return (hi - lo, lo)


def random_intervals(rng: random.Random, r: int) -> list:
    return [_affine(lo, hi) for lo, hi in _cuts(rng, r)]


def random_strip(rng: random.Random, base: list, shape: list) -> dict:
    """Plain form of a strip configuration: shape, base maps, and rectangles
    as ((x scale, x offset), (y scale, y offset))."""
    rects = [[(base[i], _affine(lo, hi)) for lo, hi in _cuts(rng, n)] if n else []
             for i, n in enumerate(shape)]
    return {"shape": list(shape), "base": base, "rects": rects}


def _spread(rng: random.Random, total: int, parts: int, min_each: int) -> list:
    """``total`` split into ``parts`` non-negative counts, each >= min_each."""
    counts = [min_each] * parts
    for _ in range(total - min_each * parts):
        counts[rng.randrange(parts)] += 1
    return counts


def intervals_json(maps: list) -> dict:
    return {"embeddings": [{"a": _rat(a), "c": _rat(c)} for a, c in maps]}


def strip_json(q: dict) -> dict:
    return {"shape": q["shape"], "base": intervals_json(q["base"]),
            "rects": [[{"a": _rat(x[0]), "c": _rat(x[1]),
                        "b": _rat(y[0]), "d": _rat(y[1])} for x, y in row]
                      for row in q["rects"]]}


def compose1(outer: tuple, inner: tuple) -> tuple:
    """outer after inner, for maps x -> a*x + c stored as (a, c)."""
    return (outer[0] * inner[0], outer[0] * inner[1] + outer[1])


def expected_intervals(outer: list, inners: list) -> list:
    return [compose1(o, e) for o, inner in zip(outer, inners) for e in inner]


def expected_strip(outer: dict, blocks: list) -> dict:
    """Composite of a strips plan by the definition: strip i fans out into
    the strips of block i's base; output strip (i, j) holds, bottom to top,
    outer rectangle a composed with each rectangle of inner a over strip j."""
    shape, base, rects = [], [], []
    for i, (b_base, configs) in enumerate(blocks):
        for j in range(len(b_base)):
            base.append(compose1(outer["base"][i], b_base[j]))
            row = [(compose1(orect[0], irect[0]), compose1(orect[1], irect[1]))
                   for orect, q in zip(outer["rects"][i], configs)
                   for irect in q["rects"][j]]
            shape.append(len(row))
            rects.append(row)
    return {"shape": shape, "base": base, "rects": rects}


def strips_plan(rng: random.Random, target: int, outer_total: int) -> tuple:
    """A strips plan whose composite has ``target`` rectangles, glued into
    ``outer_total`` outer rectangles.

    Returns (outer, blocks) in plain form; ``blocks[i]`` is
    (base maps, inner configurations)."""
    r = rng.randint(2, 5)
    outer_total = min(target, outer_total)
    m = _spread(rng, outer_total, r, 0)
    outer = random_strip(rng, random_intervals(rng, r), m)
    per_inner = _spread(rng, target, outer_total, 1)
    blocks, k = [], 0
    for i in range(r):
        s_i = rng.randint(1, 4)
        b_base = random_intervals(rng, s_i)
        configs = []
        for _ in range(m[i]):
            configs.append(random_strip(rng, b_base,
                                        _spread(rng, per_inner[k], s_i, 0)))
            k += 1
        blocks.append((b_base, configs))
    return outer, blocks


def _point(rng: random.Random, dim: int) -> list:
    return [Fraction(rng.randint(-40, 40), rng.choice((1, 2, 3, 4, 5)))
            for _ in range(dim)]


def _breaks(rng: random.Random, n: int) -> list:
    inner = sorted(rng.sample(range(1, 64), n - 2))
    return [Fraction(0)] + [Fraction(t, 64) for t in inner] + [Fraction(1)]


def _slope(p, q, dt):
    return [(b - a) / dt for a, b in zip(p, q)]


def _line_needed(breaks: list, k: int, lines: list) -> bool:
    """Whether grid line k changes slope along at least one of ``lines``."""
    dt0, dt1 = breaks[k] - breaks[k - 1], breaks[k + 1] - breaks[k]
    return any(_slope(v[k - 1], v[k], dt0) != _slope(v[k], v[k + 1], dt1)
               for v in lines)


def canonical_sheet(rng: random.Random, nx: int, ny: int, dim: int) -> dict:
    """A grid sheet with no redundant grid line, in plain form."""
    while True:
        xs, ys = _breaks(rng, nx), _breaks(rng, ny)
        vals = [[_point(rng, dim) for _ in ys] for _ in xs]
        rows = [[col[iy] for col in vals] for iy in range(ny)]
        if (all(_line_needed(xs, k, rows) for k in range(1, nx - 1))
                and all(_line_needed(ys, k, vals) for k in range(1, ny - 1))):
            return {"x_breaks": xs, "y_breaks": ys, "values": vals}


def canonical_loop(rng: random.Random, n: int, dim: int) -> dict:
    """A closed PL path with no redundant breakpoint, in plain form."""
    base = _point(rng, dim)
    while True:
        ts = _breaks(rng, n)
        vals = [base] + [_point(rng, dim) for _ in range(n - 2)] + [base]
        if all(_line_needed(ts, k, [vals]) for k in range(1, n - 1)):
            return {"breaks": ts, "values": vals}


def sheet_json(s: dict) -> dict:
    return {"x_breaks": [_rat(t) for t in s["x_breaks"]],
            "y_breaks": [_rat(t) for t in s["y_breaks"]],
            "values": [[[_rat(c) for c in v] for v in col] for col in s["values"]]}


def loop_json(p: dict) -> dict:
    return {"breaks": [_rat(t) for t in p["breaks"]],
            "values": [[_rat(c) for c in v] for v in p["values"]]}


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


# Composite sizes of the strips plans, cycled through in order: a geometric
# series from 4 to 208 rectangles, fine enough that op latencies have no big
# gaps for a percentile to jump across.  At the top end the quadratic
# rectangle-pair check in ``strip_violation`` dominates one compose.
STRIP_SIZES = tuple(round(4 * 52 ** (i / 11)) for i in range(12))


@dataclass(frozen=True)
class DocsWorkload:
    """Rounds of compose/render ops on generated documents, plus one
    ``enumerate 5 --format svg`` and one ``enumerate 8`` per child.
    ``enumerate_trees`` is cached inside one process, so repeating an
    enumeration would time the cache, not the enumeration."""

    rate: float        # round runs per second at the seed commit
    chunk: int         # rounds in one child; 6 ops each, plus 2 enumerations
    passes: int

    def batch(self, name: str, seed: int, seconds: float) -> Batch:
        b = Batch()
        n_chunks = max(-(-MIN_OPS // (6 * self.chunk + 2)),
                       round(self.rate * seconds / self.passes / self.chunk))
        for k in range(n_chunks * self.chunk):
            if k % self.chunk == 0:
                b.chunks.append([])
            self._round(b, _rng(name, seed, str(k)), k)
            if k % self.chunk == self.chunk - 1:
                j = k // self.chunk
                b.chunks[-1].append(
                    {"argv": ["enumerate", "5", "--format", "svg",
                              "--out", f"out/enum-5-{j}.svg"],
                     "expect": {"kind": "svg", "out": f"out/enum-5-{j}.svg"}})
                b.chunks[-1].append(
                    {"argv": ["enumerate", "8", "--out", f"out/enum-8-{j}.json"],
                     "expect": {"kind": "enumerate", "out": f"out/enum-8-{j}.json",
                                "r": 8}})
        return b

    def _round(self, b: Batch, rng: random.Random, k: int) -> None:
        # strips compose, some blocks spliced in through "$file"
        # the outer rectangle count cycles too, so that the cost of checking
        # the inputs does not swing with the seed
        outer, blocks = strips_plan(rng, STRIP_SIZES[k % len(STRIP_SIZES)],
                                    2 + k % 7)
        doc_blocks = []
        for i, (b_base, configs) in enumerate(blocks):
            blk = {"base": intervals_json(b_base),
                   "configs": [strip_json(q) for q in configs]}
            if k % 2 and configs:
                name = f"plan-{k}-block-{i}.json"
                b.docs[f"in/{name}"] = _dump(blk)
                blk = {"$file": name}
            doc_blocks.append(blk)
        b.docs[f"in/plan-{k}.json"] = _dump(
            {"kind": "strips", "outer": strip_json(outer), "blocks": doc_blocks})
        want = strip_json(expected_strip(outer, blocks))
        self._compose(b, k, want)

        # intervals compose
        r = rng.randint(3, 8)
        outer_i = random_intervals(rng, r)
        inners = [random_intervals(rng, rng.randint(1, 8)) for _ in range(r)]
        b.docs[f"in/iplan-{k}.json"] = _dump(
            {"kind": "intervals", "outer": intervals_json(outer_i),
             "inners": [intervals_json(q) for q in inners]})
        self._compose(b, k, intervals_json(expected_intervals(outer_i, inners)),
                      prefix="i")

        # an already canonical bare sheet and sheet element
        dim = rng.randint(1, 2)
        sheet = canonical_sheet(rng, rng.randint(6, 14), rng.randint(6, 14), dim)
        b.docs[f"in/sheet-{k}.json"] = _dump(sheet_json(sheet))
        elem_sheet = canonical_sheet(rng, rng.randint(4, 10), rng.randint(4, 10),
                                     rng.randint(1, 2))
        loop_dim = rng.randint(1, 2)
        b.docs[f"in/elem-{k}.json"] = _dump(
            {"sheet": sheet_json(elem_sheet),
             "bottom": loop_json(canonical_loop(rng, rng.randint(3, 6), loop_dim)),
             "top": loop_json(canonical_loop(rng, rng.randint(3, 6), loop_dim))})
        for doc in (f"sheet-{k}", f"elem-{k}"):
            b.chunks[-1].append({"argv": ["render", f"in/{doc}.json",
                                          "--out", f"out/{doc}.svg"],
                                 "expect": {"kind": "svg", "out": f"out/{doc}.svg"}})

    @staticmethod
    def _compose(b: Batch, k: int, want: dict, prefix: str = "") -> None:
        stem = f"{prefix}comp-{k}"
        ops = b.chunks[-1]
        ops.append({"argv": ["compose", f"in/{prefix}plan-{k}.json",
                             "--out", f"out/{stem}.json", "--svg", f"out/{stem}.svg"],
                    "expect": {"kind": "compose", "out": f"out/{stem}.json",
                               "svg": f"out/{stem}.svg", "want": want}})
        ops.append({"argv": ["render", f"out/{stem}.json",
                             "--out", f"out/{stem}-render.svg"],
                    "expect": {"kind": "svg", "out": f"out/{stem}-render.svg"}})


# Why each workload exists is written up in bench/README.md.
WORKLOADS = {
    "strips-check": CheckWorkload("strips", 3, ("--max-r", "3", "--max-n", "5"),
                                  rate=48.0, chunk=150, passes=1),
    "sheets-check": CheckWorkload("sheets", 1, ("--max-r", "4", "--max-n", "6"),
                                  rate=13.0, chunk=40, passes=1),
    "trees-check": CheckWorkload("trees", 20, ("--max-r", "4",), rate=96.0,
                                 chunk=100, passes=6),
    "cli-docs": DocsWorkload(rate=4.3, chunk=12, passes=3),
}


def make_batch(workload: str, seed: int, seconds: float) -> Batch:
    return WORKLOADS[workload].batch(workload, seed, seconds)
