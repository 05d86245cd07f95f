"""The in-process ``library`` workload and its parts: levi, weyl and lj.

Each workload object answers one query at a time through ``api`` (the
library, possibly traced) and checks the answer afterwards, outside the
timed region, through ``raw`` (the untraced library) and the oracles.
``check`` returns a list of problems, each ("wrong" | "error", message).
"""

from __future__ import annotations

import resource
from fractions import Fraction
from math import gcd
from pathlib import Path

import oracles as O
from calibrate import NOMINAL_MS, calibration_ms
from inputs import group_name, pick_degrees

from innerforms import (
    BasisElement,
    EnumerationLimitError,
    HasseVector,
    LeviDescriptor,
    PlaceLabel,
    VirtualElement,
)
from innerforms.grothendieck import split_side


def build_group(api, spec):
    """A catalog group or a product of them, as a library user builds it."""
    factors = [api.build_catalog_group(tag, list(params)) for tag, params in spec]
    if len(factors) == 1:
        return factors[0]
    return api.datum_product(factors, name=group_name(spec))


class LeviSweep:
    """Levi analyses on a ladder of groups; each block builds every group once,
    in a build query that comes before the group's analyses."""

    def __init__(self, static, api, raw, root: Path):
        self.groups = static["groups"]
        self.api, self.raw = api, raw
        self.golden_md = (root / "tests" / "golden" / "appendix_a.md").read_text(encoding="utf-8")
        self.built: dict[int, dict] = {}
        self.analyses = self.sandwiches = 0

    def kind(self, q) -> str:
        return q["kind"]

    def start_block(self) -> None:
        self.built = {}

    def query(self, q):
        api = self.api
        if q["kind"] == "catalog":
            return {"catalog": api.verify_catalog(), "markdown": api.catalog_markdown()}
        if q["kind"] == "build":
            spec = self.groups[q["group"]]
            datum = build_group(api, spec)
            group = {
                "datum": datum,
                "type": api.classify(datum),
                "pi1": api.fundamental_group(datum),
                "A": api.kottwitz_group(datum),
            }
            if len(spec) == 1 and spec[0][0] == "GL":
                group["classes"] = api.inner_form_classes_gl(spec[0][1][0])
            self.built[q["group"]] = group
            return group
        desc = LeviDescriptor(self.built[q["group"]]["datum"], tuple(q["theta"]))
        report = api.analyze_levi(desc)
        rec = {"report": report}
        if report.condition_one:
            degrees = pick_degrees(report.gl_envelope, q["dseed"])
            rec["degrees"] = degrees
            rec["shape"] = api.transfer_levi(report, degrees)
            rec["diagram"] = api.levi_satake_diagram(desc, degrees)
            rec["text"] = api.render_ascii(rec["diagram"])
            rec["parsed"] = api.parse_ascii(rec["text"])
        return rec

    def check(self, q, rec) -> list:
        if q["kind"] == "catalog":
            violations, flags = rec["catalog"]
            if violations or not any("inconsistent-m-times-d" in f for f in flags):
                return [("wrong", f"verify_catalog: {violations} {flags}")]
            if rec["markdown"] + "\n" != self.golden_md:
                return [("wrong", "catalog_markdown differs from tests/golden/appendix_a.md")]
            return []
        spec = self.groups[q["group"]]
        if q["kind"] == "build":
            return self._check_group(spec, rec)
        report = rec["report"]
        out = []
        self.analyses += 1
        self.sandwiches += bool(report.condition_one)
        if len(spec) == 1 and spec[0][0] in ("GL", "SL", "PGL"):
            tag, (n,) = spec[0]
            blocks = O.gl_blocks(n, q["theta"])
            if report.condition_one != O.type_a_sandwich(tag, blocks):
                out.append(("wrong", f"{tag}({n}) theta={q['theta']}: sandwich {report.condition_one}"))
            elif report.condition_one and tuple(report.gl_envelope) != tuple(b for b in blocks if b >= 2):
                out.append(("wrong", f"{tag}({n}): envelope {report.gl_envelope} != blocks {blocks}"))
        if report.condition_one:
            envelope = tuple(report.gl_envelope)
            shape = rec["shape"]
            if tuple(f.m * f.d for f in shape.factors) != envelope or [
                f.d for f in shape.factors
            ] != rec["degrees"]:
                out.append(("wrong", f"{group_name(spec)}: transfer {shape} vs envelope {envelope}"))
            if self.raw.render_ascii(rec["parsed"]) != rec["text"] or len(rec["parsed"].black) != len(
                rec["diagram"].black
            ):
                out.append(("wrong", f"{group_name(spec)} theta={q['theta']}: satake round trip"))
        return out

    def _check_group(self, spec, group) -> list:
        out = []
        name = group_name(spec)
        if len(spec) == 1:
            tag, params = spec[0]
            order = O.kottwitz_order(tag, params)
            if order is not None and (group["A"].order != order or group["pi1"].order != order):
                out.append(("wrong", f"{name}: |A(G)| = {group['A'].order}, |pi1| = "
                                     f"{group['pi1'].order}, expected {order}"))
            if "classes" in group:
                (n,) = params
                classes = group["classes"]
                if len(classes) != n or any(c.d != n // gcd(c.label, n) for c in classes):
                    out.append(("wrong", f"{name}: inner-form classes"))
        return out

    def finish(self) -> list:
        return []

    def counters(self) -> dict:
        return {"levi.sandwich_ratio": (self.sandwiches / max(1, self.analyses), "ratio")}


class WeylSweep:
    """Weyl data on groups of semisimple rank <= 8; the groups are built in set-up."""

    def __init__(self, static, api, raw, root: Path):
        self.groups = static["groups"]
        self.api = api
        self.data = [build_group(raw, spec) for spec in self.groups]
        self.asked = self.answered = self.restricted = 0

    def kind(self, q) -> str:
        return "weyl"

    def start_block(self) -> None:
        pass

    def query(self, q):
        api = self.api
        datum = self.data[q["group"]]
        theta = tuple(q["theta"])
        try:
            order = api.weyl_group_order(datum)
        except EnumerationLimitError:
            order = None
        word, image = api.find_w_theta(datum, theta)
        reduced = api.reduced_roots(datum, theta)
        rank_one = api.rank_one_decomposition(datum, theta)
        return {"order": order, "word": word, "image": image, "reduced": reduced, "rank_one": rank_one}

    def check(self, q, rec) -> list:
        (tag, params), = self.groups[q["group"]]
        series, k = O.series_of(tag, params)
        theta = tuple(q["theta"])
        name = f"{tag}{list(params) or ''} theta={list(theta)}"
        out = []
        self.asked += 1
        self.answered += rec["order"] is not None
        self.restricted += len(rec["reduced"])
        if rec["order"] is None and k <= 6:
            out.append(("error", f"{name}: order refused at semisimple rank {k}"))
        elif rec["order"] is not None and rec["order"] != O.weyl_order(series, k):
            out.append(("wrong", f"{name}: |W| = {rec['order']}"))
        pos = O.positive_root_count(series, k)
        pos_theta = O.theta_positive_roots(series, k, theta)
        if len(rec["word"]) != pos + pos_theta or len(rec["image"]) != len(theta):
            out.append(("wrong", f"{name}: w_theta length {len(rec['word'])} != {pos} + {pos_theta}"))
        if sum(len(r.preimages) for r in rec["reduced"]) != pos - pos_theta:
            out.append(("wrong", f"{name}: reduced-root preimages do not cover Phi+ minus Phi+_theta"))
        if len(rec["rank_one"]) != len(rec["reduced"]) or any(
            t.semisimple_rank != len(theta) + 1 for _, t in rec["rank_one"]
        ):
            out.append(("wrong", f"{name}: rank-one types"))
        return out

    def finish(self) -> list:
        return []

    def counters(self) -> dict:
        return {
            "weyl.order_answered_ratio": (self.answered / max(1, self.asked), "ratio"),
            "weyl.restricted_roots": (self.restricted, "count"),
        }


def _element(n: int, terms: dict) -> VirtualElement:
    side = split_side(n)
    return VirtualElement({BasisElement(side, comp, tags): c for (comp, tags), c in terms.items()})


class LjTerms:
    """Term-grammar writes (parse fresh text) mixed with reads on held elements."""

    def __init__(self, static, api, raw, root: Path):
        self.api, self.raw = api, raw
        self.pool_terms = [O.accumulate(p["terms"]) for p in static["pool"]]
        self.pool = [_element(p["n"], t) for p, t in zip(static["pool"], self.pool_terms)]
        self.factor_terms = [O.accumulate(f["terms"]) for f in static["factors"]]
        self.factors = [_element(f["n"], t) for f, t in zip(static["factors"], self.factor_terms)]
        self.parsed = self.lj_in = self.lj_kept = 0

    def kind(self, q) -> str:
        return q["kind"]

    def start_block(self) -> None:
        pass

    def query(self, q):
        api = self.api
        if q["kind"] == "write":
            element = api.parse_virtual(q["text"], q["n"])
            image = api.lj_map(element, q["d"])
            return {"element": element, "image": image, "text": api.render(image)}
        if q["kind"] == "read":
            a, b = self.pool[q["a"]], self.pool[q["b"]]
            total = api.add(a, b)
            image = api.lj_map(total, q["d"])
            return {
                "sum": total,
                "scaled": api.scale(a, q["c"]),
                "image_a": api.lj_map(a, q["d"]),
                "image": image,
                "commutes": api.equal(total, api.add(b, a)),
                "hash": api.hash(total),
                "text": api.render(image),
            }
        if q["kind"] == "tensor":
            x, y = q["factors"]
            return api.tensor_lj(api.tensor(self.factors[x], self.factors[y]), q["degrees"])
        plan = api.plan_globalization(q["p"], q["places"], q["class_order"], q["class_residue"])
        report = api.global_division_algebra(q["n"], self._hasse(q["invariants"]))
        return {"plan": plan, "report": report}

    @staticmethod
    def _hasse(invariants) -> HasseVector:
        return HasseVector.from_items(
            (PlaceLabel(id=pid, kind="finite", prime=2), Fraction(j, d)) for pid, j, d in invariants
        )

    def check(self, q, rec) -> list:
        if q["kind"] == "write":
            return self._check_write(q, rec)
        if q["kind"] == "read":
            return self._check_read(q, rec)
        if q["kind"] == "tensor":
            return self._check_tensor(q, rec)
        return self._check_global(q, rec)

    def _lj_count(self, source: dict, image: dict) -> None:
        self.lj_in += len(source)
        self.lj_kept += len(image)

    def _check_write(self, q, rec) -> list:
        out = []
        terms = O.accumulate(q["terms"])
        want = O.lj_expected(terms, q["d"])
        self.parsed += len(q["terms"])
        self._lj_count(terms, want)
        if O.element_terms(rec["element"]) != terms:
            out.append(("wrong", f"parse_virtual of {len(q['terms'])} terms"))
        if O.element_terms(rec["image"]) != want or rec["text"] != O.render_expected(want):
            out.append(("wrong", f"lj_map/render at n={q['n']}, d={q['d']}"))
        return out

    def _check_read(self, q, rec) -> list:
        raw = self.raw
        ta, tb = self.pool_terms[q["a"]], self.pool_terms[q["b"]]
        total = {k: ta.get(k, 0) + tb.get(k, 0) for k in set(ta) | set(tb)}
        total = {k: v for k, v in total.items() if v}
        want = O.lj_expected(total, q["d"])
        self._lj_count(total, want)
        self._lj_count(ta, O.lj_expected(ta, q["d"]))
        out = []
        if O.element_terms(rec["sum"]) != total:
            out.append(("wrong", "sum of pool elements"))
        if O.element_terms(rec["scaled"]) != {k: q["c"] * v for k, v in ta.items()}:
            out.append(("wrong", "scale"))
        if O.element_terms(rec["image_a"]) != O.lj_expected(ta, q["d"]):
            out.append(("wrong", f"lj_map kill rule at d={q['d']}"))
        image_b = raw.lj_map(self.pool[q["b"]], q["d"])
        if O.element_terms(rec["image"]) != want or rec["image"] != raw.add(rec["image_a"], image_b):
            out.append(("wrong", f"lj_map linearity at d={q['d']}"))
        if not rec["commutes"] or rec["hash"] != hash(raw.add(self.pool[q["b"]], self.pool[q["a"]])):
            out.append(("wrong", "equality/hash of a + b and b + a"))
        if rec["text"] != O.render_expected(want):
            out.append(("wrong", "render of lj_map(a + b)"))
        return out

    def _check_tensor(self, q, rec) -> list:
        """A product term survives iff both factors survive their own lj_map."""
        (x, y), (dx, dy) = q["factors"], q["degrees"]
        want: dict = {}
        for kx, cx in self.factor_terms[x].items():
            for ky, cy in self.factor_terms[y].items():
                ex, ey = O.lj_expected({kx: 1}, dx), O.lj_expected({ky: 1}, dy)
                if ex and ey:
                    key = (next(iter(ex)), next(iter(ey)))
                    want[key] = want.get(key, 0) + cx * cy
        got = {tuple((e.composition, e.labels) for e in key): c for key, c in rec.terms.items()}
        if got != {k: v for k, v in want.items() if v}:
            return [("wrong", f"tensor_lj at degrees {q['degrees']}")]
        return []

    def _check_global(self, q, rec) -> list:
        out = []
        plan, report = rec["plan"], rec["report"]
        r = (q["places"] - 1).bit_length()
        if (
            len(plan.places) != q["places"]
            or len(plan.s_places) != q["class_order"]
            or plan.degree != 2**r
            or len(plan.tower_primes) != r
            or (plan.cocycle is not None and plan.cocycle.total() != 0)
        ):
            out.append(("wrong", f"plan_globalization{(q['p'], q['places'], q['class_order'])}"))
        total = O.hasse_total(q["invariants"])
        local = {p.id: d for p, _, d in report.local_data}
        want_local = {pid: Fraction(j, d).denominator for pid, j, d in q["invariants"] if j % d}
        if report.valid != (total == 0) or local != want_local:
            out.append(("wrong", f"global_division_algebra n={q['n']} {q['invariants']}"))
        return out

    def finish(self) -> list:
        """The grammar round trip parse_virtual(render(v)) == v on every held element."""
        raw = self.raw
        return [
            ("wrong", f"round trip of a {len(t)}-term pool element")
            for v, t in zip(self.pool, self.pool_terms)
            if raw.parse_virtual(raw.render(v)) != v
        ]

    def counters(self) -> dict:
        return {
            "grothendieck.terms_parsed": (self.parsed, "count"),
            "grothendieck.terms_kept_ratio": (self.lj_kept / max(1, self.lj_in), "ratio"),
        }


class Library:
    """The three parts in one closed loop: every block runs one block of each."""

    calibration_nominal_ms = NOMINAL_MS
    calibration_interval_s = 0.2
    whole_blocks = False

    @staticmethod
    def calibrate() -> float:
        return calibration_ms()

    @staticmethod
    def peak_rss_mb() -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # kB on Linux

    def __init__(self, static, api, raw, root: Path):
        parts = {"levi": LeviSweep, "weyl": WeylSweep, "lj": LjTerms}
        self.parts = {name: cls(static[name], api, raw, root) for name, cls in parts.items()}

    def kind(self, q) -> str:
        return self.parts[q["part"]].kind(q)

    def start_block(self) -> None:
        for part in self.parts.values():
            part.start_block()

    def query(self, q):
        return self.parts[q["part"]].query(q)

    def check(self, q, rec) -> list:
        return self.parts[q["part"]].check(q, rec)

    def finish(self) -> list:
        return [problem for part in self.parts.values() for problem in part.finish()]

    def counters(self) -> dict:
        out = {}
        for part in self.parts.values():
            out.update(part.counters())
        return out
