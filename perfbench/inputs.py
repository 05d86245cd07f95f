"""Seeded inputs for the two workloads.

Everything here is plain data (tuples, ints, strings); nothing imports
``innerforms``.  The ``library`` workload is made of three parts, each with
its own generator: ``levi`` (root data, Levi analysis, Satake, Kottwitz,
catalog), ``weyl`` (the Weyl layer) and ``lj`` (the term grammar and
globalization).  A workload's inputs are a static part (the group ladder, the
held elements) and a sequence of *blocks*.  Every block holds the same fixed
mix of query classes, sized so that the cost of a block hardly depends on the
seed: the seed picks the free parameters inside each class (which roots a
theta drops, division degrees, term contents, query order), while sizes and
shapes follow fixed cycles.  The timed loop runs blocks in turn, so runs on
different seeds measure the same composition of work.

Every query carries a ``slot``: its place in the fixed mix, the same in every
block of a workload.  The worker reports each slot's median latency over the
blocks of a run, so one odd sample moves a slot's samples but not its median.

Block ``b`` is generated from its own random stream, on demand and off the
clock, so set-up time does not grow with the number of blocks a run needs.
"""

from __future__ import annotations

import hashlib
import json
import random

from oracles import gl_blocks

# ---------------------------------------------------------------------------
# group ladders: a group is a tuple of (catalog tag, parameters) factors

EXCEPTIONAL_RANK = {"E6sc": 6, "E7sc": 7, "E8": 8, "F4": 4, "G2": 2}


def semisimple_rank(tag: str, params) -> int:
    """Number of simple roots of a catalog group, known without the library."""
    if tag in EXCEPTIONAL_RANK:
        return EXCEPTIONAL_RANK[tag]
    (n,) = params
    if tag in ("GL", "SL", "PGL"):
        return n - 1
    return n // 2  # Sp, GSp, SO, Spin, GSpin (odd m: (m - 1) / 2)


def group_rank(spec) -> int:
    return sum(semisimple_rank(tag, params) for tag, params in spec)


def group_name(spec) -> str:
    return "x".join(
        f"{tag}({','.join(map(str, params))})" if params else tag for tag, params in spec
    )


LEVI_GROUPS = (
    [((tag, (n,)),) for n in (4, 9, 17, 33, 64) for tag in ("GL", "SL", "PGL")]
    + [((tag, (2 * r,)),) for r in (3, 8, 16, 32) for tag in ("Sp", "GSp", "SO")]
    + [((tag, (2 * r + 1,)),) for r in (3, 8, 16, 32) for tag in ("Spin", "GSpin")]
    + [((tag, ()),) for tag in ("G2", "F4", "E6sc", "E7sc", "E8")]
    + [
        (("GL", (3,)), ("GL", (2,))),
        (("SL", (4,)), ("Sp", (4,))),
        (("GL", (8,)), ("Spin", (9,))),
        (("E6sc", ()), ("GL", (3,))),
    ]
)

# Every rank up to 8, except that B6 and D6 are left out: their enumerated
# Weyl orders cost as much as C6 and E6 and would only add more of the same.
WEYL_GROUPS = (
    [(("SL", (n,)),) for n in range(2, 10)]
    + [(("Sp", (2 * r,)),) for r in range(2, 9)]
    + [(("Spin", (2 * r + 1,)),) for r in (2, 3, 4, 5, 7, 8)]
    + [(("Spin", (2 * r,)),) for r in (4, 5, 7, 8)]
    + [((tag, ()),) for tag in ("G2", "F4", "E6sc", "E7sc", "E8")]
)

# lj block (45 queries): nine writes (terms, n, d), reads on held pairs
# (two elements with the same size and n), four tensor reads and two
# globalization queries.  Latencies sort by size class; the counts place the
# block median inside the 300-term reads and the 90th percentile inside the
# 500-term writes, not on the edge between two classes.  Parse time grows
# with the number of distinct terms, so the large writes share n = 24, where
# nearly every generated term is distinct.
LJ_WRITES = ((10, 6, 2), (30, 8, 2), (100, 12, 3), (500, 24, 2), (500, 24, 3),
             (500, 24, 4), (500, 24, 6), (1000, 24, 2), (1000, 24, 3))
LJ_POOL = ((10, 6, 4), (30, 12, 4), (100, 16, 6), (300, 18, 10), (1000, 24, 6))  # terms, n, reads
LJ_FACTOR_N = (4, 6, 8, 6)
LJ_TENSORS_PER_BLOCK = 4
LJ_GLOBAL_PER_BLOCK = 2
LJ_SCALES = (-3, -1, 2, 5)
TAGS = ("a", "b", "c", "x", "y", "St", "pi", "rho")
SMALL_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def pick_degrees(envelope, dseed: int) -> list[int]:
    """Seeded division degree per envelope block: a divisor of that block."""
    out = []
    for i, n in enumerate(envelope):
        ds = divisors(n)
        out.append(ds[(dseed >> (4 * i)) % len(ds)])
    return out


def _rng(workload: str, seed: int, part) -> random.Random:
    return random.Random(f"{workload}/{seed}/{part}")


# ---------------------------------------------------------------------------
# library part: levi


def levi_thetas_per_block(spec) -> int:
    """Thetas per group and block: fewer for the large groups.  GL/SL/PGL(33)
    get four, so that their ~100 ms analyses hold the block's 90th percentile."""
    k = group_rank(spec)
    if k <= 20:
        return 3
    if spec[0][0] in ("GL", "SL", "PGL") and k == 32:
        return 4
    return 2 if k <= 40 else 1


def levi_static(seed: int, smoke: bool):
    groups = [g for g in LEVI_GROUPS if group_rank(g) <= 8][::3] if smoke else LEVI_GROUPS
    rng = _rng("levi", seed, "static")
    return {"groups": groups, "start": [rng.randrange(group_rank(g)) for g in groups]}


def levi_block(seed: int, b: int, static, smoke: bool):
    """Per group: one build (root datum, type, pi1, Kottwitz group), then
    maximal thetas walking the roots in order from a seeded start, alternating
    with random thetas that drop 1, 2 or 3 roots in turn.  One catalog check."""
    rng = _rng("levi", seed, b)
    queries = [{"kind": "catalog", "slot": "levi/catalog"}]
    for gi, spec in enumerate(static["groups"]):
        k = group_rank(spec)
        count = 1 if smoke else levi_thetas_per_block(spec)
        queries.append({"kind": "build", "group": gi, "slot": f"levi/{gi}/build"})
        for j in range(count):
            if j % 2 == 0:
                removed = {(static["start"][gi] + b * count + j // 2) % k}
            else:
                removed = set(rng.sample(range(k), min(k, 1 + (b + j // 2) % 3)))
            theta = tuple(i for i in range(k) if i not in removed)
            queries.append({"kind": "levi", "group": gi, "theta": theta,
                            "dseed": rng.getrandbits(32), "slot": f"levi/{gi}/{j}"})
    return queries


def builds_first(queries):
    """Move each group's build query to just before the group's first analysis,
    keeping the shuffled order otherwise."""
    builds = {q["group"]: q for q in queries if q.get("kind") == "build"}
    out = []
    for q in queries:
        if q.get("kind") == "build":
            continue
        if q.get("kind") == "levi" and q["group"] in builds:
            out.append(builds.pop(q["group"]))
        out.append(q)
    return out


# ---------------------------------------------------------------------------
# library part: weyl


def weyl_static(seed: int, smoke: bool):
    groups = [g for g in WEYL_GROUPS if group_rank(g) <= 4] if smoke else WEYL_GROUPS
    rng = _rng("weyl", seed, "static")
    return {"groups": groups, "start": [rng.randrange(group_rank(g)) for g in groups]}


def weyl_block(seed: int, b: int, static, smoke: bool):
    """Per group: theta = {} and one seeded theta.  Up to rank 5 that is a
    random subset whose size cycles over 1..k-1; from rank 6 on it is a maximal
    theta walking the roots from a seeded start, because there a random
    subset swings a rank-one decomposition between 20 ms and 700 ms."""
    rng = _rng("weyl", seed, b)
    queries = []
    for gi, spec in enumerate(static["groups"]):
        k = group_rank(spec)
        if k <= 5:
            theta = sorted(rng.sample(range(k), 1 + (b + gi) % max(1, k - 1)))
        else:
            removed = (static["start"][gi] + b) % k
            theta = [i for i in range(k) if i != removed]
        queries.append({"group": gi, "theta": (), "slot": f"weyl/{gi}/empty"})
        queries.append({"group": gi, "theta": tuple(theta), "slot": f"weyl/{gi}/theta"})
    return queries


# ---------------------------------------------------------------------------
# library part: lj


def _composition(rng: random.Random, n: int) -> tuple[int, ...]:
    """A composition of n into at most 5 blocks, scaled from one of n/e by a
    random divisor e, so that a useful share of terms survives lj_map for d > 1."""
    e = rng.choice(divisors(n))
    m = n // e
    cuts = sorted(rng.sample(range(1, m), rng.randint(0, min(m - 1, 4))))
    edges = [0, *cuts, m]
    return tuple(e * (hi - lo) for lo, hi in zip(edges, edges[1:]))


_COEFFS = (1, 1, 2, 3, 5, 7, -1, -1, -2, -3, -5, -7)


def make_terms(rng: random.Random, n: int, count: int):
    """``count`` signed terms (coefficient, composition, tags) of GL_n."""
    out = []
    for _ in range(count):
        comp = _composition(rng, n)
        out.append((rng.choice(_COEFFS), comp, tuple(rng.choices(TAGS, k=len(comp)))))
    return out


def terms_text(terms) -> str:
    """The term grammar: ``3*(2,4):a,b - (6):c + ...``."""
    parts = []
    for coeff, comp, tags in terms:
        body = f"({','.join(map(str, comp))}):{','.join(tags)}"
        body = body if abs(coeff) == 1 else f"{abs(coeff)}*{body}"
        if not parts:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if coeff > 0 else f" - {body}")
    return "".join(parts)


def lj_static(seed: int, smoke: bool):
    rng = _rng("lj", seed, "static")
    scale = 10 if smoke else 1
    pool = []
    for t, n, _ in LJ_POOL:
        pool += [{"n": n, "terms": make_terms(rng, n, max(2, t // scale))} for _ in range(2)]
    factors = [{"n": n, "terms": make_terms(rng, n, 6 if smoke else 24)} for n in LJ_FACTOR_N]
    return {"pool": pool, "factors": factors}


def lj_block(seed: int, b: int, static, smoke: bool):
    """Fixed write slots with fresh terms; reads cycle d, c and tensor pairs."""
    rng = _rng("lj", seed, b)
    scale = 10 if smoke else 1
    pool, factors = static["pool"], static["factors"]
    pairs = [(x, y) for x in range(len(factors)) for y in range(len(factors)) if x != y]
    queries = []
    for i, (t, n, d) in enumerate(LJ_WRITES):
        terms = make_terms(rng, n, max(2, t // scale))
        queries.append({"kind": "write", "n": n, "d": d, "text": terms_text(terms), "terms": terms,
                        "slot": f"lj/write/{i}"})
    for p, (_, n, reads) in zip(range(0, len(pool), 2), LJ_POOL):
        ds = divisors(n)
        for r in range(reads):
            queries.append({"kind": "read", "a": p + r % 2, "b": p + 1 - r % 2,
                            "c": LJ_SCALES[(b + r) % len(LJ_SCALES)], "d": ds[(b + r) % len(ds)],
                            "slot": f"lj/read/{p}/{r}"})
    for r in range(LJ_TENSORS_PER_BLOCK):
        x, y = pairs[(b * LJ_TENSORS_PER_BLOCK + r) % len(pairs)]
        dx, dy = divisors(factors[x]["n"]), divisors(factors[y]["n"])
        queries.append({"kind": "tensor", "factors": (x, y),
                        "degrees": (dx[(b + r) % len(dx)], dy[(b + r + 1) % len(dy)]),
                        "slot": f"lj/tensor/{r}"})
    for r in range(LJ_GLOBAL_PER_BLOCK):
        order = rng.choice((1, 2, 3, 4, 6))
        n = order * rng.choice((1, 2))
        # local invariants j/n; half the queries close the sum to 0 in Q/Z
        invs = [(f"v{i}", rng.randrange(n), n) for i in range(rng.randint(1, 4))]
        if rng.random() < 0.5:
            invs.append((f"v{len(invs)}", -sum(j for _, j, _ in invs) % n, n))
        queries.append({
            "kind": "global", "p": rng.choice(SMALL_PRIMES), "places": order + rng.randint(0, 4),
            "class_order": order, "class_residue": 1, "n": n, "invariants": invs,
            "slot": f"lj/global/{r}",
        })
    return queries


# ---------------------------------------------------------------------------
# cli-cold

_README_LJ = [(1, (2, 4), ("a", "b")), (3, (6,), ("c",))]

# (argv, stdin, oracle) for every command the README shows
README_COMMANDS = (
    (["levi", "Sp(8)", "--remove", "a4"], None, None),
    (["levi", "Spin(9)", "--remove", "a3", "--json"], None, None),
    (["satake", "--group", "E7sc", "--remove", "a4", "--degrees", "1,2,2"], None, None),
    (["satake", "--group", "GL(6)", "--pattern", "6,3"], None, None),
    (["appendix-a"], None, {"golden": "appendix_a.md"}),
    (["appendix-a", "--json"], None, {"golden": "appendix_a.json"}),
    (["weyl", "SL(3)", "--theta", "0"], None, {"series": "A", "k": 2, "theta": [0]}),
    (["kottwitz", "PGL(6)"], None, None),
    (["inner-forms", "GL(6)"], None, None),
    (["globalize", "--prime", "5", "--places", "3", "--class-order", "2"], None, None),
    (["division-algebra", "--n", "6", "--inv", "v1=1/2,v2=1/3,v3=1/6"], None, None),
    (["lj", "--n", "6", "--d", "2", "--element", "(2,4):a,b + 3*(6):c"], None,
     {"d": 2, "terms": _README_LJ}),
    (["lj", "--n", "2", "--d", "2"], "(1,1):x,y\n", {"d": 2, "terms": [(1, (1, 1), ("x", "y"))]}),
)

# Inputs that break the CLI contract today: each exits 1 with a traceback
# where a usage error (exit 2, no traceback) is due.  They stay in every
# block and count as failed queries until the CLI is fixed.
KNOWN_DEFECTS = (
    ["satake", "--group", "GL(6)", "--pattern", "6"],
    ["satake", "--group", "E7sc", "--remove", "a4", "--degrees", "x"],
    ["division-algebra", "--n", "6", "--inv", "v1=1/0"],
    ["division-algebra", "--n", "6", "--inv", "v1@x=1/2"],
)

MALFORMED = (
    ["levi", "GL(0)"],
    ["weyl", "Foo(3)", "--json"],
    ["lj", "--n", "2", "--d", "2", "--element", "(1,1):x"],
    ["levi", "SL(4)", "--remove", "a9"],
    ["kottwitz"],
)


def cli_static(seed: int, smoke: bool):
    return {}


def cli_block(seed: int, b: int, static, smoke: bool):
    """Every README command, the four known defects, other malformed calls,
    and seeded calls on modest inputs (type A up to rank 16, plus weyl E6sc)."""
    rng = _rng("cli-cold", seed, b)
    queries = [{"argv": list(argv), "stdin": stdin, "expect": 0, "oracle": oracle}
               for argv, stdin, oracle in README_COMMANDS]
    queries += [{"argv": list(argv), "stdin": None, "expect": 2, "oracle": None}
                for argv in KNOWN_DEFECTS + tuple(rng.sample(MALFORMED, 1 if smoke else 2))]
    if not smoke:
        queries += _cli_seeded(rng)
    for i, q in enumerate(queries):
        q["slot"] = f"cli/{i}"
    rng.shuffle(queries)
    return queries


def _cli_seeded(rng: random.Random):
    out = []

    def add(argv, oracle):
        out.append({"argv": argv, "stdin": None, "expect": 0, "oracle": oracle})

    def removal(n):
        removed = sorted(rng.sample(range(n - 1), rng.randint(1, min(3, n - 1))))
        return ",".join(f"a{r + 1}" for r in removed), [i for i in range(n - 1) if i not in removed]

    for _ in range(4):
        tag, n = rng.choice(("GL", "SL", "PGL")), rng.randint(2, 17)
        removed, theta = removal(n)
        add(["levi", f"{tag}({n})", "--remove", removed, "--json"], {"tag": tag, "n": n, "theta": theta})
    for _ in range(4):
        n = rng.randint(3, 17)
        removed, theta = removal(n)
        envelope = [b for b in gl_blocks(n, theta) if b >= 2]
        degrees = pick_degrees(envelope, rng.getrandbits(32))
        add(["satake", "--group", f"GL({n})", "--remove", removed,
             "--degrees", ",".join(map(str, degrees)), "--json"],
            {"envelope": envelope, "degrees": degrees})
    for _ in range(3):
        n = rng.randint(2, 8)
        theta = sorted(rng.sample(range(n - 1), rng.randint(0, n - 1)))
        add(["weyl", f"SL({n})", "--theta", ",".join(map(str, theta)), "--json"],
            {"series": "A", "k": n - 1, "theta": theta})
    add(["weyl", "E6sc", "--json"], {"series": "E", "k": 6, "theta": []})
    for _ in range(3):
        tag, n = rng.choice(("GL", "SL", "PGL")), rng.randint(2, 17)
        add(["kottwitz", f"{tag}({n})", "--json"], {"tag": tag, "n": n})
    for _ in range(2):
        n = rng.randint(1, 17)
        add(["inner-forms", f"GL({n})", "--json"], {"n": n})
    for _ in range(4):
        n = rng.choice((6, 8, 12, 16, 18, 24))
        d = rng.choice(divisors(n))
        terms = make_terms(rng, n, rng.randint(1, 12))
        # "--element=" keeps a leading minus sign from reading as an option
        add(["lj", "--n", str(n), "--d", str(d), f"--element={terms_text(terms)}", "--json"],
            {"d": d, "terms": terms})
    return out


# ---------------------------------------------------------------------------

def library_static(seed: int, smoke: bool):
    return {part: make(seed, smoke) for part, (make, _) in LIBRARY_PARTS.items()}


def library_block(seed: int, b: int, static, smoke: bool):
    """One block of each library part, interleaved in a seeded order."""
    queries = [dict(q, part=part) for part, (_, make) in LIBRARY_PARTS.items()
               for q in make(seed, b, static[part], smoke)]
    _rng("library", seed, b).shuffle(queries)
    return builds_first(queries)


LIBRARY_PARTS = {
    "levi": (levi_static, levi_block),
    "weyl": (weyl_static, weyl_block),
    "lj": (lj_static, lj_block),
}
GENERATORS = {
    "library": (library_static, library_block),
    "cli-cold": (cli_static, cli_block),
}


class Inputs:
    """A workload's static inputs plus its blocks, generated on demand."""

    def __init__(self, workload: str, seed: int, smoke: bool = False):
        make_static, self._make_block = GENERATORS[workload]
        self.seed, self.smoke = seed, smoke
        self.static = make_static(seed, smoke)
        self.first = self._make_block(seed, 0, self.static, smoke)

    def block(self, b: int):
        return self.first if b == 0 else self._make_block(self.seed, b, self.static, self.smoke)

    def digest(self) -> str:
        """Hash of the static inputs and the first block."""
        blob = json.dumps([self.static, self.first], sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()
