"""Command-line front end: derive, verify, show, export.

Exit codes: 0 success, 1 verification mismatch (this includes a printed
ideal-membership check, such as the trigonal weight-12 quartic, that does
not reduce to zero once the document reaches its weight), 2 configuration
error, 3 internal inconsistency (the convention-bug class).
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from dataclasses import replace

from .curves import CurveSpec, parse_spec
from .document import METHODS, RelationDocument, export_document, render_relation
from .engine import RelationDB, classify, derive_range
from .errors import ConfigError, ConventionError, InconsistentSystemError, ReductionError
from .klein import jacobi_inversion_extract
from .poly import monomial_str
from .tables import ideal_checks, relation_table
from .taucalc import AbelianContext, TauModel


def _check_writable(path: str):
    """Raise the ConfigError that _atomic_write would raise for path, before any work.

    The path must not be a directory, and a temporary file must be
    creatable beside it; the probe file is removed, and path is not touched.
    """
    if os.path.isdir(path):
        raise ConfigError("cannot write %s: it is a directory" % path)
    try:
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        with tempfile.NamedTemporaryFile(dir=directory, prefix=".kleinian-"):
            pass
    except OSError as exc:
        raise ConfigError("cannot write %s: %s" % (path, exc)) from exc


def _atomic_write(path: str, text: str):
    """Write text to path through a temporary file; an unwritable path is a ConfigError."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".kleinian-")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise ConfigError("cannot write %s: %s" % (path, exc)) from exc


# ---------------------------------------------------------------------------
# derive


def run_derive(curve: CurveSpec, max_weight: int, method: str = "plucker") -> RelationDocument:
    """Derive the hierarchy of the curve's family, then substitute its values.

    The plucker method derives every layer from weight 4 through
    max_weight from the Plucker rows of the tau model; the classical
    method extracts the genus-2 relations of the Klein identity, those of
    weight at most max_weight.  The
    relations among the p-functions hold identically in the curve
    parameters, so a curve with parameter values gets the relations of
    its generic family member with the values substituted; each keeps the
    solved monomial, class and source of its generic relation, and the
    notes describe the generic derivation.
    """
    if max_weight < 4:
        raise ConfigError("max-weight must be at least 4 (no rank-2 partitions below)")
    if method not in METHODS:
        raise ConfigError("unknown method %r" % method)

    generic = curve.generic()
    relations = []
    notes: dict[int, list[str]] = {}
    classical = []
    if method in ("classical", "both"):
        # first: the classical engine rejects other curves before any work
        _, _, classical = jacobi_inversion_extract(generic)
        classical = [r for r in classical if r.weight <= max_weight]
    if method in ("plucker", "both"):
        db = derive_range(RelationDB(generic), TauModel.build(generic, max_weight), max_weight)
        relations = db.relations()
        notes = db.notes
    if method == "both":
        stored = {r.solved_monomial: r for r in relations}
        for r in classical:
            match = stored.get(r.solved_monomial)
            if match is None or match.expr != r.expr:
                raise ConventionError(
                    "classical and hook engines disagree at %s"
                    % monomial_str(r.solved_monomial))
    relations = [replace(r, expr=curve.specialize(r.expr)) for r in relations]
    classical = [replace(r, expr=curve.specialize(r.expr)) for r in classical]
    return RelationDocument(curve, max_weight, method, relations, classical, notes)


# ---------------------------------------------------------------------------
# verify


def verify_document(doc: RelationDocument) -> tuple[bool, list[str]]:
    """Exact-match verdicts of a document against the built-in tables.

    A curve with parameter values is checked against the generic table,
    classified and then specialized, as :func:`run_derive` derives it.  A
    classical document is checked through its classical relations; a
    missing row that the classical engine derives fails, and the other
    table rows are notes.
    """
    curve = doc.curve
    ctx = AbelianContext(curve.gap_weights)
    lines = []
    ok = True
    classical_only = doc.method == "classical"
    source = {r.solved_monomial: r for r in (doc.classical if classical_only else doc.relations)}
    if classical_only:
        classical_rows = {r.solved_monomial for r in jacobi_inversion_extract(curve.generic())[2]}
    for weight, cls, expr in relation_table(curve.generic(), ctx):
        if weight > doc.max_weight:
            continue
        want = classify(expr, weight, ctx)
        name = "w%d %s" % (weight, monomial_str(want.solved_monomial))
        got = source.get(want.solved_monomial)
        if got is None and classical_only and want.solved_monomial not in classical_rows:
            lines.append("NOTE %-24s not derived by the classical method" % name)
        elif got is None:
            ok = False
            lines.append("FAIL %-24s missing from document" % name)
        elif got.expr != curve.specialize(want.expr):
            ok = False
            lines.append("FAIL %-24s coefficients differ" % name)
        elif got.cls != cls:
            ok = False
            lines.append("FAIL %-24s class %s, expected %s" % (name, got.cls, cls))
        else:
            lines.append("PASS %-24s exact match" % name)
    for r in doc.relations + doc.classical:
        if not curve.values and not r.expr.is_homogeneous(r.weight):
            ok = False
            lines.append("FAIL w%d relation is not weight-homogeneous" % r.weight)
    if doc.method in ("both",):
        stored = {r.solved_monomial: r for r in doc.relations}
        for r in doc.classical:
            match = stored.get(r.solved_monomial)
            verdict = match is not None and match.expr == r.expr
            ok = ok and verdict
            lines.append("%s classical %s agrees" % ("PASS" if verdict else "FAIL",
                                                     monomial_str(r.solved_monomial)))
    for weight, notes in sorted(doc.notes.items()):
        lines.extend("NOTE w%d %s" % (weight, note) for note in notes)
    checks = ideal_checks(curve, ctx)
    db = doc.to_db() if checks else None
    for weight, name, expr in checks:
        try:
            residual = db.reduce(expr)
        except ReductionError as exc:
            # the rules are the document's own: a cycle among them is bad input
            raise ConfigError("document relations do not reduce: %s" % exc) from exc
        if doc.max_weight >= weight:
            ok = ok and residual.is_zero()
            lines.append("PASS %s lies in the derived ideal" % name if residual.is_zero() else
                         "FAIL %s residual has %d terms" % (name, len(residual.terms)))
        elif residual.is_zero():
            lines.append("NOTE %s lies in the derived ideal" % name)
        else:
            lines.append("NOTE %s residual has %d terms (database through weight %d)"
                         % (name, len(residual.terms), doc.max_weight))
    return ok, lines


# ---------------------------------------------------------------------------
# argument parsing and entry points


def _read_curve(path: str) -> CurveSpec:
    try:
        with open(path) as fh:
            return parse_spec(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("cannot read curve spec %s: %s" % (path, exc))


def _read_document(path: str) -> RelationDocument:
    try:
        with open(path) as fh:
            return RelationDocument.from_json(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("cannot read document %s: %s" % (path, exc))


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="kleinian",
        description="Derive and check differential relations among Kleinian p-functions.")
    sub = ap.add_subparsers(dest="command", required=True)

    d = sub.add_parser("derive", help="derive the relation hierarchy for a curve")
    d.add_argument("--curve", required=True, help="path to a curve-spec file")
    d.add_argument("--max-weight", type=int, required=True)
    d.add_argument("--method", choices=METHODS, default="plucker")
    d.add_argument("--out", default="relations.json")

    v = sub.add_parser("verify", help="check a document against the built-in tables")
    v.add_argument("--doc", required=True)

    s = sub.add_parser("show", help="print the relations of a document")
    s.add_argument("--doc", required=True)
    s.add_argument("--weight", type=int)

    e = sub.add_parser("export", help="render a document as json, text or latex")
    e.add_argument("--doc", required=True)
    e.add_argument("--format", choices=("json", "text", "latex"), default="text")
    e.add_argument("--out")
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "derive":
            curve = _read_curve(args.curve)
            _check_writable(args.out)
            doc = run_derive(curve, args.max_weight, args.method)
            _atomic_write(args.out, doc.to_json())
            print("wrote %s (%d relations, curve %s)"
                  % (args.out, len(doc.relations) + len(doc.classical),
                     curve.fingerprint()))
            return 0
        if args.command == "verify":
            ok, lines = verify_document(_read_document(args.doc))
            print("\n".join(lines))
            return 0 if ok else 1
        if args.command == "show":
            doc = _read_document(args.doc)
            for r in doc.relations + doc.classical:
                if args.weight is None or r.weight == args.weight:
                    print("[w%-2d %-16s] %s" % (r.weight, r.cls, render_relation(r, "text")))
            return 0
        if args.command == "export":
            doc = _read_document(args.doc)
            text = export_document(doc, args.format)
            if args.out:
                _atomic_write(args.out, text)
                print("wrote %s" % args.out)
            else:
                sys.stdout.write(text)
            return 0
        raise ConfigError("unknown command")
    except ConfigError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (ConventionError, InconsistentSystemError, ReductionError) as exc:
        print("internal inconsistency: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
