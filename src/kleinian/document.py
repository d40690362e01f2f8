"""Relation documents: deterministic JSON serialization and rendering.

A document records the curve fingerprint, the engine version, and every
derived relation with exact rational coefficients; identical inputs
produce byte-identical files and documents round-trip losslessly.
Rationals are serialized as {"num": ..., "den": ...} decimal strings
(no floats anywhere).
"""

from __future__ import annotations

import json
from math import gcd

from . import ENGINE_VERSION
from .curves import CurveSpec, curve_by_family
from .engine import CLASSES, Relation, RelationDB
from .errors import ConfigError
from .poly import (EMPTY_MONOMIAL, Monomial, MultiPoly, Symbol, factors, monomial, monomial_key,
                   monomial_str)
from .rationals import Q, q_str
from .taucalc import AbelianContext

FORMAT = "kleinian-relations-v1"
METHODS = ("plucker", "classical", "both")


def symbol_from_name(name: str, curve: CurveSpec, ctx: AbelianContext) -> Symbol:
    if name.startswith("p") and name[1:].isdigit():
        return ctx.wp(tuple(int(c) for c in name[1:]))
    for p in curve.parameters:
        if p.name == name:
            return p
    raise ConfigError("unknown symbol %r in document" % name)


def _coeff_json(c) -> dict:
    return {"num": str(c.numerator), "den": str(c.denominator)}


def _decimal(value, what: str) -> int:
    if type(value) is not str or str(int(value)) != value:
        raise ConfigError("%s must be a decimal string as written by export, got %r"
                          % (what, value))
    return int(value)


def _coeff_from_json(d) -> object:
    """A nonzero rational written as to_json writes it: in lowest terms, with a
    positive denominator."""
    num, den = _decimal(d["num"], "numerator"), _decimal(d["den"], "denominator")
    if not num or den < 1 or gcd(num, den) != 1:
        raise ConfigError("coefficient %s/%s is not a nonzero rational in lowest terms "
                          "with a positive denominator" % (num, den))
    return Q(num, den)


def _monomial_json(m: Monomial) -> list:
    return [[s.name, e] for s, e in factors(m)]


def _parameter(name: str, value) -> str:
    if type(value) is not str or q_str(value) != value:
        raise ConfigError("parameter %s must be \"symbolic\" or a rational written as "
                          "\"n\" or \"n/d\", got %r" % (name, value))
    return value


def _integer(value, what: str, minimum: int) -> int:
    if type(value) is not int or value < minimum:
        raise ConfigError("%s must be an integer >= %d, got %r" % (what, minimum, value))
    return value


def _layer(weight: int, what: str, max_weight: int) -> int:
    """A weight of the layers 4..max_weight, the only ones a document holds."""
    if not 4 <= weight <= max_weight:
        raise ConfigError("%s of weight %d outside the layers 4..%d" % (what, weight, max_weight))
    return weight


def _notes(value) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ConfigError("notes must be lists of strings, got %r" % (value,))
    return value


def _monomial_from_json(data, curve, ctx) -> Monomial:
    # a symbol named twice, or an exponent beyond the packed field, is a ValueError
    return monomial((symbol_from_name(name, curve, ctx), _integer(e, "exponent", 1))
                    for name, e in data)


def poly_json(p: MultiPoly) -> list:
    return [{"coeff": _coeff_json(c), "monomial": _monomial_json(m)}
            for m, c in p.sorted_terms()]


def poly_from_json(data, curve, ctx) -> MultiPoly:
    """The polynomial of a relation's terms, each monomial named once."""
    terms = {}
    for term in data:
        m = _monomial_from_json(term["monomial"], curve, ctx)
        if m in terms:
            raise ConfigError("monomial %s occurs twice in one relation" % monomial_str(m))
        terms[m] = _coeff_from_json(term["coeff"])
    return MultiPoly(terms)


def relation_json(r: Relation) -> dict:
    return {
        "weight": r.weight,
        "class": r.cls,
        "solved_monomial": _monomial_json(r.solved_monomial) if r.solved_monomial else None,
        "terms": poly_json(r.expr),
        "source_partitions": [list(p.parts) for p in r.source],
    }


def _relation_class(value) -> str:
    if type(value) is not str or value not in CLASSES:
        raise ConfigError("relation class must be one of %s, got %r" % (", ".join(CLASSES), value))
    return value


def relation_from_json(data, curve, ctx) -> Relation:
    from .partitions import Partition
    solved = data["solved_monomial"]
    return Relation(
        expr=poly_from_json(data["terms"], curve, ctx),
        weight=_integer(data["weight"], "weight", 0),
        cls=_relation_class(data["class"]),
        solved_monomial=_monomial_from_json(solved, curve, ctx) if solved else None,
        source=tuple(Partition(tuple(_integer(k, "source partition part", 1) for k in p))
                     for p in data["source_partitions"]),
    )


def _solved_once(relations: list[Relation], where: str) -> list[Relation]:
    """The relations of one list, refused unless each solved monomial occurs
    in its expression at coefficient exactly +1 and once in the list.

    A ``--method both`` document repeats solved monomials across its two
    lists, so each list is checked on its own.
    """
    seen = set()
    for r in relations:
        m = r.solved_monomial
        if m is None:
            continue
        if r.expr.terms.get(m) != 1:
            raise ConfigError("%s: solved monomial %s has coefficient %s, not 1, in its relation"
                              % (where, monomial_str(m), r.expr.terms.get(m, 0)))
        if m in seen:
            raise ConfigError("%s: solved monomial %s occurs twice" % (where, monomial_str(m)))
        seen.add(m)
    return relations


def _relation_order(r: Relation):
    return (r.weight, r.cls, monomial_key(r.solved_monomial or EMPTY_MONOMIAL))


class RelationDocument:
    """Serializable result of a derivation run."""

    def __init__(self, curve: CurveSpec, max_weight: int, method: str,
                 relations: list[Relation], classical: list[Relation] | None = None,
                 notes: dict[int, list[str]] | None = None):
        self.curve = curve
        self.max_weight = max_weight
        self.method = method
        self.relations = sorted(relations, key=_relation_order)
        self.classical = sorted(classical or [], key=_relation_order)
        self.notes = notes or {}

    def to_json(self) -> str:
        doc = {
            "format": FORMAT,
            "engine_version": ENGINE_VERSION,
            "curve": {
                "family": self.curve.family,
                "parameters": {p.name: (q_str(dict(self.curve.values)[p.name])
                                        if p.name in dict(self.curve.values) else "symbolic")
                               for p in self.curve.parameters},
            },
            "max_weight": self.max_weight,
            "method": self.method,
            "relations": [relation_json(r) for r in self.relations],
            "classical_relations": [relation_json(r) for r in self.classical],
            "notes": {str(w): msgs for w, msgs in sorted(self.notes.items())},
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=1) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RelationDocument":
        """Parse a document; any malformed input raises :class:`ConfigError`."""
        try:
            return cls._from_data(json.loads(text))
        except (ValueError, KeyError, IndexError, TypeError, AttributeError,
                ZeroDivisionError, RecursionError) as exc:
            raise ConfigError("malformed document: %s: %s" % (type(exc).__name__, exc)) from exc

    @classmethod
    def _from_data(cls, data) -> "RelationDocument":
        if data.get("format") != FORMAT:
            raise ConfigError("unrecognized document format %r" % data.get("format"))
        if data["method"] not in METHODS:
            raise ConfigError("unknown method %r" % (data["method"],))
        given = data["curve"]["parameters"]
        curve = curve_by_family(data["curve"]["family"],
                                {k: _parameter(k, v) for k, v in given.items() if v != "symbolic"})
        stray = sorted(set(given) - {p.name for p in curve.parameters})
        if stray:
            raise ConfigError("parameter %r does not belong to family %s"
                              % (stray[0], curve.family))
        ctx = AbelianContext(curve.gap_weights)
        max_weight = _integer(data["max_weight"], "max_weight", 0)
        lists = ("relations", "classical_relations")
        if not all(isinstance(data[key], list) for key in lists):
            raise ConfigError("%s must be lists" % " and ".join(lists))
        relations, classical = (
            _solved_once([relation_from_json(r, curve, ctx) for r in data[key]], key)
            for key in lists)
        for r in relations + classical:
            _layer(r.weight, "relation", max_weight)
        return cls(
            curve=curve,
            max_weight=max_weight,
            method=data["method"],
            relations=relations,
            classical=classical,
            notes={_layer(_decimal(w, "notes weight"), "notes", max_weight): _notes(msgs)
                   for w, msgs in data.get("notes", {}).items()},
        )

    def to_db(self) -> RelationDB:
        db = RelationDB(self.curve)
        by_weight: dict[int, list[Relation]] = {}
        for r in self.relations:
            by_weight.setdefault(r.weight, []).append(r)
        for w in sorted(by_weight):
            db.add_layer(w, by_weight[w])
        return db


# ---------------------------------------------------------------------------
# rendering


_LATEX_HEADS = {"a": r"\alpha_", "m": r"\mu_"}


def _latex_symbol(s: Symbol) -> str:
    if s.kind == "wp":
        return r"\wp_{%s}" % "".join(map(str, s.indices))
    head, tail = s.name[0], s.name[1:]
    if head in _LATEX_HEADS and tail.isdigit():
        return "%s{%s}" % (_LATEX_HEADS[head], tail)
    return s.name


def latex_poly(p: MultiPoly) -> str:
    if p.is_zero():
        return "0"
    bits = []
    for m, c in p.sorted_terms():
        mono = " ".join(_latex_symbol(s) if e == 1 else "%s^{%d}" % (_latex_symbol(s), e)
                        for s, e in factors(m))
        if not m:
            coeff = _latex_q(c)
        elif c == 1:
            coeff = ""
        elif c == -1:
            coeff = "-"
        else:
            coeff = _latex_q(c)
        piece = (coeff + " " + mono).strip() if mono else coeff
        if bits and not piece.startswith("-"):
            bits.append("+ " + piece)
        elif bits:
            bits.append("- " + piece[1:].strip())
        else:
            bits.append(piece)
    return " ".join(bits)


def _latex_q(c) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    sign = "-" if c.numerator < 0 else ""
    return r"%s\tfrac{%d}{%d}" % (sign, abs(c.numerator), c.denominator)


def render_relation(r: Relation, fmt: str) -> str:
    if fmt == "text":
        if r.solved_monomial is not None:
            return "%s = %s" % (monomial_str(r.solved_monomial), r.rhs.text())
        return "%s = 0" % r.expr.text()
    if fmt == "latex":
        if r.solved_monomial is not None:
            lhs = latex_poly(MultiPoly.monomial(r.solved_monomial))
            return "%s &= %s \\\\" % (lhs, latex_poly(r.rhs))
        return "0 &= %s \\\\" % latex_poly(r.expr)
    raise ConfigError("unknown format %r" % fmt)


def export_document(doc: RelationDocument, fmt: str) -> str:
    if fmt == "json":
        return doc.to_json()
    lines = []
    if fmt == "latex":
        lines.append(r"\begin{align*}")
    for r in doc.relations:
        prefix = "" if fmt == "latex" else "[w%-2d %-16s] " % (r.weight, r.cls)
        lines.append(prefix + render_relation(r, fmt))
    if doc.classical:
        lines.append("% classical engine" if fmt == "latex" else "# classical engine")
        for r in doc.classical:
            prefix = "" if fmt == "latex" else "[w%-2d %-16s] " % (r.weight, r.cls)
            lines.append(prefix + render_relation(r, fmt))
    if fmt == "latex":
        lines.append(r"\end{align*}")
    return "\n".join(lines) + "\n"
