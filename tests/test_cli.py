"""CLI and document layer: round-trips, determinism, verification, export."""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import kleinian
from kleinian import cli
from kleinian.cli import main, run_derive, verify_document
from kleinian.curves import parse_spec
from kleinian.document import RelationDocument, export_document
from kleinian.engine import Relation, plucker_relation
from kleinian.errors import ConfigError
from kleinian.poly import EMPTY_MONOMIAL
from kleinian.partitions import enumerate_rank2
from kleinian.rationals import Q
from kleinian.taucalc import AbelianContext, TauModel

G2_SPEC = "family = hyperelliptic_g2\n"
TRIG_SPEC = "family = cyclic_trigonal_34\n"
CURVE_SPECS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "curve-specs")


@pytest.fixture()
def g2_spec_file(tmp_path):
    p = tmp_path / "g2.curve"
    p.write_text(G2_SPEC)
    return str(p)


def run(argv):
    return main(argv)


def test_derive_verify_show_export_roundtrip(tmp_path, g2_spec_file):
    out = str(tmp_path / "doc.json")
    assert run(["derive", "--curve", g2_spec_file, "--max-weight", "6",
                "--out", out]) == 0
    assert run(["verify", "--doc", out]) == 0
    assert run(["show", "--doc", out, "--weight", "4"]) == 0

    latex = str(tmp_path / "doc.tex")
    assert run(["export", "--doc", out, "--format", "latex", "--out", latex]) == 0
    text = Path(latex).read_text()
    assert r"\wp_{1111}" in text and r"\alpha_{4}" in text and r"\tfrac{1}{2}" in text

    txt = str(tmp_path / "doc.txt")
    assert run(["export", "--doc", out, "--format", "text", "--out", txt]) == 0
    body = Path(txt).read_text()
    assert "p1111 = " in body and "1/2*a3" in body


def test_document_json_roundtrip(g2, tmp_path):
    doc = run_derive(g2, 6)
    text = doc.to_json()
    again = RelationDocument.from_json(text)
    assert again.to_json() == text
    assert len(again.relations) == len(doc.relations)
    for a, b in zip(again.relations, doc.relations):
        assert a.expr == b.expr and a.weight == b.weight and a.cls == b.cls


def test_relation_without_solved_monomial_roundtrips(g2):
    # an OTHER relation with no pivot sorts among the others by the empty
    # monomial's key, and the document round-trips
    doc = run_derive(g2, 6)
    ctx = AbelianContext(g2.gap_weights)
    expr = ctx.wp_poly(1, 1) * ctx.wp_poly(1, 1) - ctx.wp_poly(1, 2)
    text = RelationDocument(g2, 6, "plucker",
                            doc.relations + [Relation(expr, 4, "OTHER", None)]).to_json()
    assert RelationDocument.from_json(text).to_json() == text


def test_derivation_is_byte_deterministic(tmp_path, g2_spec_file):
    # separate processes with different hash seeds: symbol hashes (object
    # identity) and string hashes both differ between the two runs
    src = os.path.dirname(os.path.dirname(kleinian.__file__))
    outs = [str(tmp_path / ("doc%d.json" % i)) for i in range(2)]
    for seed, out in zip(("1", "2"), outs):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        subprocess.run([sys.executable, "-m", "kleinian.cli", "derive", "--curve", g2_spec_file,
                        "--max-weight", "8", "--out", out], env=env, check=True)
    first, second = (Path(out).read_bytes() for out in outs)
    assert first == second


def test_trigonal_document_matches_benchmark_digest():
    # folding trigonal transpose pairs moves these bytes while the printed
    # tables still match and verify passes, so only the pinned digest sees it
    repo = os.path.dirname(CURVE_SPECS)
    with open(os.path.join(repo, "perfbench", "workloads.json")) as fh:
        (pinned,) = [w for w in json.load(fh)["workloads"] if w["name"] == "trig-w11-cold"]
    with open(os.path.join(repo, pinned["curve"])) as fh:
        curve = parse_spec(fh.read())
    assert curve.n == 3
    doc = run_derive(curve, pinned["max_weight"], pinned["method"])
    assert hashlib.sha256(doc.to_json().encode()).hexdigest() == pinned["digest"]


def test_derive_weight6_exact_content(g2):
    doc = run_derive(g2, 6)
    assert sorted(r.weight for r in doc.relations) == [4, 6, 6]
    ok, lines = verify_document(doc)
    assert ok and all(line.startswith("PASS") for line in lines)


def test_method_both_agreement(g2):
    doc = run_derive(g2, 7, method="both")
    assert len(doc.classical) == 3
    ok, lines = verify_document(doc)
    assert ok


def test_method_classical_only(g2):
    doc = run_derive(g2, 7, method="classical")
    assert doc.relations == [] and len(doc.classical) == 3


def test_verify_checks_classical_document(tmp_path, g2_spec_file, capsys):
    # a classical document is checked through its classical relations; the
    # table rows the classical method does not derive are notes, not failures
    out = str(tmp_path / "classical.json")
    assert run(["derive", "--curve", g2_spec_file, "--max-weight", "8",
                "--method", "classical", "--out", out]) == 0
    capsys.readouterr()
    assert run(["verify", "--doc", out]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:3] for line in lines if line.startswith("PASS")] == [
        ["PASS", "w4", "p1111"], ["PASS", "w6", "p1112"], ["PASS", "w7", "p11*p112"]]
    notes = [line for line in lines if line.startswith("NOTE")]
    assert len(notes) == 2 and not any(line.startswith("FAIL") for line in lines)
    assert all(line.endswith("not derived by the classical method") for line in notes)
    # a missing row that the classical engine derives fails; the rest are notes
    data = json.loads(Path(out).read_text())
    data["classical_relations"] = []
    ok, lines = verify_document(RelationDocument.from_json(json.dumps(data)))
    assert not ok
    assert [line for line in lines if line.startswith("FAIL")] == [
        "FAIL %-24s missing from document" % name for name in ("w4 p1111", "w6 p1112", "w7 p11*p112")]
    assert sum(line.startswith("NOTE") for line in lines) == 2
    # a corrupted classical relation still fails
    data = json.loads(Path(out).read_text())
    data["classical_relations"][0]["terms"][0]["coeff"] = {"num": "7", "den": "1"}
    ok, lines = verify_document(RelationDocument.from_json(json.dumps(data)))
    assert not ok
    assert any(line.startswith("FAIL") and "p1111" in line for line in lines)
    # a Plucker document missing a table row still fails
    data = json.loads(run_derive(parse_spec(G2_SPEC), 8).to_json())
    data["relations"] = data["relations"][1:]
    ok, lines = verify_document(RelationDocument.from_json(json.dumps(data)))
    assert not ok
    assert "FAIL %-24s missing from document" % "w4 p1111" in lines


def test_verify_detects_corruption(g2):
    doc = run_derive(g2, 4)
    data = json.loads(doc.to_json())
    # corrupt the 1/2*a3 constant of the weight-4 relation to a3
    for rel in data["relations"]:
        for term in rel["terms"]:
            if term["coeff"] == {"num": "-1", "den": "2"}:
                term["coeff"] = {"num": "-1", "den": "1"}
    corrupted = RelationDocument.from_json(json.dumps(data))
    ok, lines = verify_document(corrupted)
    assert not ok
    assert any(line.startswith("FAIL") and "p1111" in line for line in lines)


def test_trigonal_verify_reports_quartic_residual(trig):
    doc = run_derive(trig, 6)
    ok, lines = verify_document(doc)
    assert ok
    assert any(line.startswith("NOTE weight-12 quartic") for line in lines)


def test_config_errors(tmp_path, g2_spec_file):
    bad = str(tmp_path / "bad.curve")
    Path(bad).write_text("family = foo\n")
    assert run(["derive", "--curve", bad, "--max-weight", "6"]) == 2
    assert run(["derive", "--curve", g2_spec_file, "--max-weight", "3",
                "--out", str(tmp_path / "x.json")]) == 2
    assert run(["verify", "--doc", str(tmp_path / "missing.json")]) == 2


def unwritable_out(tmp_path, target):
    """An --out path under a regular file, or naming a directory."""
    dest = tmp_path / "dest"
    if target == "under-a-file":
        dest.write_text("")
        return dest / "x.json"
    dest.mkdir()
    return dest


@pytest.mark.parametrize("command", ["derive", "export"])
@pytest.mark.parametrize("target", ["under-a-file", "a-directory"])
def test_unwritable_out_exits_2(tmp_path, g2_spec_file, command, target):
    doc = str(tmp_path / "doc.json")
    assert run(["derive", "--curve", g2_spec_file, "--max-weight", "4", "--out", doc]) == 0
    out = unwritable_out(tmp_path, target)
    args = {"derive": ["derive", "--curve", g2_spec_file, "--max-weight", "4"],
            "export": ["export", "--doc", doc]}[command]
    src = os.path.dirname(os.path.dirname(kleinian.__file__))
    proc = subprocess.run([sys.executable, "-m", "kleinian.cli"] + args + ["--out", str(out)],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: cannot write")
    assert "Traceback" not in proc.stderr
    assert not list(tmp_path.rglob(".kleinian-*"))


def never_derive(*args, **kwargs):
    raise AssertionError("run_derive called")


@pytest.mark.parametrize("target", ["under-a-file", "a-directory"])
def test_unwritable_out_is_refused_before_deriving(tmp_path, g2_spec_file, monkeypatch,
                                                   capsys, target):
    monkeypatch.setattr(cli, "run_derive", never_derive)
    out = unwritable_out(tmp_path, target)
    assert run(["derive", "--curve", g2_spec_file, "--max-weight", "16",
                "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write")
    assert not list(tmp_path.rglob(".kleinian-*"))


def test_failed_derive_leaves_existing_out_untouched(tmp_path, g2_spec_file, monkeypatch):
    def refuse(*args, **kwargs):
        raise ConfigError("refused")

    monkeypatch.setattr(cli, "run_derive", refuse)
    out = tmp_path / "doc.json"
    out.write_text("an earlier document")
    assert run(["derive", "--curve", g2_spec_file, "--max-weight", "6",
                "--out", str(out)]) == 2
    assert out.read_text() == "an earlier document"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["doc.json", "g2.curve"]


def test_enable_weight16_is_an_unknown_argument(tmp_path, g2_spec_file, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_derive", never_derive)
    with pytest.raises(SystemExit) as exc:
        run(["derive", "--curve", g2_spec_file, "--max-weight", "16", "--enable-weight16",
             "--out", str(tmp_path / "o.json")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --enable-weight16" in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()


def test_verify_reports_unresolved_rows(g2, tmp_path, capsys):
    doc = run_derive(g2, 6)
    doc.notes = {6: ["unresolved row (no rational pivot): a3*p111"]}
    path = tmp_path / "noted.json"
    path.write_text(doc.to_json())
    ok, lines = verify_document(RelationDocument.from_json(path.read_text()))
    assert ok
    assert "NOTE w6 unresolved row (no rational pivot): a3*p111" in lines
    assert run(["verify", "--doc", str(path)]) == 0
    assert "NOTE w6 unresolved row" in capsys.readouterr().out
    data = json.loads(path.read_text())
    for bad in ("a3*p111", [1], None):
        data["notes"] = {"6": bad}
        with pytest.raises(ConfigError):
            RelationDocument.from_json(json.dumps(data))


def test_classical_rejected_for_trigonal(tmp_path, monkeypatch):
    # the classical engine's own ConfigError comes before any Plucker work
    def no_work(*args):
        raise AssertionError("tau model built before the curve was rejected")

    monkeypatch.setattr(cli.TauModel, "build", no_work)
    spec = tmp_path / "trig.curve"
    spec.write_text(TRIG_SPEC)
    for method in ("classical", "both"):
        assert run(["derive", "--curve", str(spec), "--max-weight", "5",
                    "--method", method, "--out", str(tmp_path / "o.json")]) == 2


@pytest.mark.parametrize("method", ["classical", "both"])
@pytest.mark.parametrize("weight", [4, 5, 6])
def test_classical_relations_stop_at_max_weight(tmp_path, g2_spec_file, capsys, method, weight):
    # the classical engine extracts weights 4, 6 and 7; a document keeps only
    # those up to its max_weight, so both engines agree and it verifies
    out = str(tmp_path / "doc.json")
    assert run(["derive", "--curve", g2_spec_file, "--max-weight", str(weight),
                "--method", method, "--out", out]) == 0
    doc = RelationDocument.from_json(Path(out).read_text())
    assert [r.weight for r in doc.classical] == [w for w in (4, 6, 7) if w <= weight]
    assert all(r.weight <= weight for r in doc.relations)
    capsys.readouterr()
    assert run(["verify", "--doc", out]) == 0
    assert not any(line.startswith("FAIL") for line in capsys.readouterr().out.splitlines())


def test_specialized_curve_derivation(tmp_path):
    spec = tmp_path / "s.curve"
    spec.write_text("family = hyperelliptic_g2\nalpha4 = 2\nalpha3 = -4\n")
    out = str(tmp_path / "s.json")
    assert run(["derive", "--curve", str(spec), "--max-weight", "4",
                "--out", out]) == 0
    doc = RelationDocument.from_json(Path(out).read_text())
    # p1111 = 6 p11^2 + 2 p11 + 4 p12 - 2 with the parameters substituted
    (rel,) = doc.relations
    assert rel.rhs.coeff(EMPTY_MONOMIAL) == Q(-2)


@pytest.mark.parametrize("spec, weight, method", [("specialized_example.curve", 12, "both"),
                                                  ("specialized_trigonal.curve", 11, "plucker")])
def test_specialized_document_annihilates_its_own_tau_model(tmp_path, capsys, spec, weight,
                                                            method):
    # the document is the generic hierarchy with the values substituted; the
    # oracle is the tau model built from the specialized curve's own Puiseux
    # data, so a value substituted into the wrong parameter leaves rows
    curve_file = os.path.join(CURVE_SPECS, spec)
    out = str(tmp_path / "s.json")
    assert run(["derive", "--curve", curve_file, "--max-weight", str(weight),
                "--method", method, "--out", out]) == 0
    capsys.readouterr()
    assert run(["verify", "--doc", out]) == 0
    assert "FAIL" not in capsys.readouterr().out
    db = RelationDocument.from_json(Path(out).read_text()).to_db()
    model = TauModel.build(parse_spec(Path(curve_file).read_text()), weight)
    for w in range(4, weight + 1):
        for lam in enumerate_rank2(w):
            assert db.reduce(plucker_relation(lam, model).poly()).is_zero(), lam.parts


def _document_naming(symbol):
    """A genus-2 document whose only relation has the term 1*symbol."""
    return json.dumps({
        "format": "kleinian-relations-v1", "engine_version": "1.0.0",
        "curve": {"family": "hyperelliptic_g2", "parameters": {}},
        "max_weight": 4, "method": "plucker", "classical_relations": [], "notes": {},
        "relations": [{"weight": 4, "class": "FOUR_INDEX", "solved_monomial": [["p1111", 1]],
                       "source_partitions": [[2, 2]],
                       "terms": [{"coeff": {"num": "1", "den": "1"}, "monomial": [[symbol, 1]]}]}]})


def _document_with_monomial(monomial):
    """A genus-2 document whose only relation is p1111 + monomial."""
    doc = json.loads(_document_naming("p1111"))
    doc["relations"][0]["terms"].append({"coeff": {"num": "1", "den": "1"}, "monomial": monomial})
    return json.dumps(doc)


def _document_with_terms(*terms):
    """A genus-2 document whose only relation is p1111 plus the (num, den,
    monomial) terms, written as given."""
    doc = json.loads(_document_naming("p1111"))
    doc["relations"][0]["terms"].extend({"coeff": {"num": num, "den": den}, "monomial": m}
                                        for num, den, m in terms)
    return json.dumps(doc)


def _document_with_parameter(value):
    """A genus-2 document whose curve gives a4 the JSON value ``value``."""
    doc = json.loads(_document_naming("p1111"))
    doc["curve"]["parameters"]["a4"] = value
    return json.dumps(doc)


def _document_with_method(method):
    """A genus-2 document that names the given derivation method."""
    doc = json.loads(_document_naming("p1111"))
    doc["method"] = method
    return json.dumps(doc)


def _document_with_key(key, value):
    """A genus-2 document with the given value under a top-level key."""
    doc = json.loads(_document_naming("p1111"))
    doc[key] = value
    return json.dumps(doc)


def _document_with_relation(key, value):
    """A genus-2 document whose relation has the given value under key."""
    doc = json.loads(_document_naming("p1111"))
    doc["relations"][0][key] = value
    return json.dumps(doc)


@pytest.mark.parametrize("text", ["not json", "[]", '{"format": "kleinian-relations-v1"}'] + [
    pytest.param(_document_naming(name), id=name) for name in ("p10", "z0", "p13", "z3")] + [
    # the model has no z_i (zeta_i drops out of the gauged tau ratio), not
    # even in a term of the relation's weight
    pytest.param(_document_with_monomial(m), id=name)
    for name, m in (("z1^4", [["z1", 4]]), ("z1*z2", [["z1", 1], ["z2", 1]]))] + [
    # parameter values are strings as q_str writes them, never JSON numbers
    pytest.param(_document_with_parameter(v), id="a4=%s" % json.dumps(v))
    for v in (0.1, 1.5, True)] + [
    # a parameter the family does not have, symbolic or not
    pytest.param(json.dumps({**json.loads(_document_naming("p1111")),
                             "curve": {"family": "hyperelliptic_g2", "parameters": {"zz": v}}}),
                 id="zz=%s" % v) for v in ("symbolic", "3")] + [
    # the relation lists are lists, not maps
    pytest.param(_document_with_key(key, {}), id="%s={}" % key)
    for key in ("relations", "classical_relations")] + [
    # notes are keyed by a layer weight 4..max_weight written as export writes it
    pytest.param(_document_with_key("notes", {w: ["x"]}), id="notes[%r]" % w)
    for w in (" 4", "04", " 6", "99", "3")] + [
    # a symbol named twice in one monomial, under two spellings or one
    pytest.param(_document_with_monomial(m), id="*".join(name for name, _ in m))
    for m in ([["p12", 1], ["p21", 1]], [["p11", 1], ["p11", 1]])] + [
    # an exponent beyond the packed exponent field
    pytest.param(_document_with_monomial([["p11", 128]]), id="p11^128")] + [
    # each monomial once, each coefficient nonzero, in lowest terms with a
    # positive denominator and written as export writes it: anything else
    # re-exports to other bytes
    pytest.param(_document_with_terms(*terms), id=name) for name, terms in (
        ("p12/2+p12/2", [("1", "2", [["p12", 1]]), ("1", "2", [["p12", 1]])]),
        ("0*p12", [("0", "1", [["p12", 1]])]),
        ("2/4*p12", [("2", "4", [["p12", 1]])]),
        ("1/-2*p12", [("1", "-2", [["p12", 1]])]),
        ("-1/-2*p12", [("-1", "-2", [["p12", 1]])]),
        ("+1*p12", [("+1", "1", [["p12", 1]])]),
        ("01*p12", [("01", "1", [["p12", 1]])]))] + [
    pytest.param(_document_with_method(m), id="method=%r" % (m,))
    for m in ("bogus", 5, ["both"], None)] + [
    # a class is one of the engine's class names
    pytest.param(_document_with_relation("class", c), id="class=%r" % (c,))
    for c in (5, "FOUR", "four_index", None, ["OTHER"])] + [
    # source partition parts are positive integers, never floats or booleans
    pytest.param(_document_with_relation("source_partitions", p), id="source=%r" % (p,))
    for p in ([[2.5, 1.5]], [[2, 2.0]], [[True, True]], [[4, 0]], [["2", "2"]], [2])])
def test_malformed_document_exits_2(tmp_path, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert run(["verify", "--doc", str(bad)]) == 2
    assert run(["show", "--doc", str(bad)]) == 2
    assert run(["export", "--doc", str(bad), "--format", "json"]) == 2


@pytest.mark.parametrize("den", [1.5, float("inf"), 1, None])
def test_non_string_coefficient_exits_2(tmp_path, den):
    # coefficients are decimal strings; a float must not be truncated or overflow
    doc = json.loads(_document_naming("p22"))
    doc["relations"][0]["terms"][0]["coeff"]["den"] = den
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run(["verify", "--doc", str(bad)]) == 2


@pytest.fixture(scope="module")
def trig8_data(trig):
    return json.loads(run_derive(trig, 8).to_json())


def _solved_term(rel):
    return next(t for t in rel["terms"] if t["monomial"] == rel["solved_monomial"])


def _coefficient_two(rels):
    _solved_term(rels[-1])["coeff"] = {"num": "2", "den": "1"}


def _solved_term_deleted(rels):
    rels[-1]["terms"].remove(_solved_term(rels[-1]))


def _solved_monomial_p11(rels):
    rels[-1]["solved_monomial"] = [["p11", 1]]


def _listed_twice(rels):
    rels.append(json.loads(json.dumps(rels[-1])))


@pytest.mark.parametrize("mutate", [_coefficient_two, _solved_term_deleted,
                                    _solved_monomial_p11, _listed_twice])
def test_malformed_solved_monomial_exits_2(trig8_data, tmp_path, mutate):
    # a bad input, exit 2: unchecked, each reaches the closure as a cyclic
    # rule set or a duplicate pivot and reads as an internal inconsistency
    doc = json.loads(json.dumps(trig8_data))
    mutate(doc["relations"])  # the last relation has the top weight
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run(["verify", "--doc", str(bad)]) == 2


def test_cyclic_document_exits_2(trig8_data, tmp_path):
    # -p111^2 in the p1122 relation and -p1122 in the p111^2 relation: each
    # weight-6 pivot rewrites to the other, a cycle only the reduction meets
    doc = json.loads(json.dumps(trig8_data))
    added = {"p1122": [["p111", 2]], "p111": [["p1122", 1]]}
    for rel in doc["relations"]:
        other = added.get(rel["solved_monomial"][0][0])
        if rel["weight"] == 6 and other is not None:
            rel["terms"].append({"coeff": {"num": "-1", "den": "1"}, "monomial": other})
    bad = tmp_path / "cyclic.json"
    bad.write_text(json.dumps(doc))
    src = os.path.dirname(os.path.dirname(kleinian.__file__))
    proc = subprocess.run([sys.executable, "-m", "kleinian.cli", "verify", "--doc", str(bad)],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and "cyclic rule set" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.fixture(scope="module")
def g2_both8_data(g2):
    return json.loads(run_derive(g2, 8, "both").to_json())


@pytest.mark.parametrize("key", ["relations", "classical_relations"])
@pytest.mark.parametrize("max_weight, lowered", [(3, None), (8, 3)])
def test_relation_outside_the_claimed_layers_exits_2(g2_both8_data, tmp_path, key,
                                                     max_weight, lowered):
    # a document holds only the layers 4..max_weight, in either list: a
    # genus-2 W=8 document edited to max_weight 3 still holds relations
    # through weight 8, and one whose first relation claims weight 3 holds
    # a layer below the first
    doc = json.loads(json.dumps(g2_both8_data))
    doc["classical_relations" if key == "relations" else "relations"] = []
    doc["max_weight"] = max_weight
    if lowered is not None:
        doc[key][0]["weight"] = lowered
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run(["verify", "--doc", str(bad)]) == 2


def test_verify_time_follows_the_layers_held_not_max_weight(trig8_data, tmp_path, capsys):
    # a trigonal W=8 document that claims max_weight 1,000,000 is checked
    # against the weight-12 quartic, which its layers do not generate; the
    # database holds only the weights that hold relations, so verify takes
    # no time per claimed layer
    doc = json.loads(json.dumps(trig8_data))
    doc["max_weight"] = 1000000
    path = tmp_path / "claimed.json"
    path.write_text(json.dumps(doc))
    start = time.process_time()
    assert run(["verify", "--doc", str(path)]) == 1
    assert time.process_time() - start < 1.0
    assert "FAIL weight-12 quartic residual" in capsys.readouterr().out


@pytest.fixture(scope="module")
def doc4_data():
    from kleinian.curves import HYPERELLIPTIC_G2, curve_by_family
    return json.loads(run_derive(curve_by_family(HYPERELLIPTIC_G2), 4).to_json())


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12)


def _parses_or_config_error(text):
    try:
        doc = RelationDocument.from_json(text)
    except ConfigError:
        return
    # whatever parses can be verified and rendered without a traceback
    verify_document(doc)
    export_document(doc, "latex")


@settings(max_examples=200, deadline=None)
@given(st.text())
def test_from_json_fuzz_text(text):
    _parses_or_config_error(text)


@settings(max_examples=200, deadline=None)
@given(JSON_VALUES)
def test_from_json_fuzz_json_values(value):
    _parses_or_config_error(json.dumps(value))


def _paths(node, prefix=()):
    yield prefix
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _paths(child, prefix + (key,))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_from_json_fuzz_mutated_document(doc4_data, data):
    # replace one subtree of a valid document by an arbitrary JSON value
    doc = json.loads(json.dumps(doc4_data))
    path = data.draw(st.sampled_from(list(_paths(doc))[1:]))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = data.draw(JSON_VALUES)
    _parses_or_config_error(json.dumps(doc))
