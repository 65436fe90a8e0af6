"""Germfile parsing, subcommands, JSON reports, and exit codes."""

import concurrent.futures
import contextlib
import glob
import io
import json
import os
import random
import shutil
import sys

import pytest

import germcalc.invariants
from germcalc.cli import ALL_IDENTITIES, main, verify_report
from germcalc.germfile import GermfileError, load_germfile, parse_germfile
from germcalc.invariants import random_linear_images
from germcalc.ring import render

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")
GOLDEN = os.path.join(os.path.dirname(__file__), "data", "corpus_reports.json")
GOLDEN_LC = os.path.join(os.path.dirname(__file__), "data", "corpus_lc.json")

WORKED = """\
# the worked space curve
ring Q x y z
X: x^2+y^2+z^2, x*y
f: z^2+x*y
options: weighted_homogeneous
"""


@pytest.fixture
def worked_path(tmp_path):
    p = tmp_path / "worked.germ"
    p.write_text(WORKED)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# germfile parsing

def test_parse_germfile_fields():
    gf = parse_germfile(WORKED)
    assert gf.ring.names == ("x", "y", "z")
    assert gf.ring.field.tag == "Q"
    assert len(gf.X.phi) == 2
    assert gf.f is not None
    assert gf.options["weighted_homogeneous"] is True


def test_parse_germfile_prime_field():
    gf = parse_germfile("ring Fp:7 x y\nX: x^2+y^3\n")
    assert gf.ring.field.tag == "Fp:7"
    assert gf.f is None


def test_parse_germfile_errors():
    with pytest.raises(GermfileError):
        parse_germfile("X: x\nring Q x\n")
    with pytest.raises(GermfileError):
        parse_germfile("ring Q x\n")
    with pytest.raises(GermfileError):
        parse_germfile("ring Zp:4 x\nX: x\n")
    with pytest.raises(GermfileError) as err:
        parse_germfile("ring Q x\nX: x+\n")
    assert "line 2" in str(err.value)
    with pytest.raises(GermfileError):
        parse_germfile("ring Q x\nX: x\nbogus line\n")
    for text, line in (("ring Q x x\nX: x\n", 1),
                       ("ring Q x\nX: x, x^2\n", 2),
                       ("ring Q x y\nX: x\nX: y\n", 3),
                       ("ring Q x y\nX: x\nf: y\nf: x\n", 4),
                       ("ring Q x y\n\nX: x, 1+x\n", 3),
                       # f must vanish at 0 and be nonzero
                       ("ring Q x y\nX: x^2+y^3\nf: 1+x\n", 3),
                       ("ring Q x y\nX: x^2+y^3\nf: 0\n", 3),
                       ("ring Q x y\nf: 1\nX: x^2+y^3\n", 2),
                       # options are bare flags the program reads
                       ("ring Q x y\nX: x^2+y^3\noptions: weighted_homogeneous=no\n", 3),
                       ("ring Q x y\nX: x^2+y^3\noptions: weighted_homogenous\n", 3)):
        with pytest.raises(GermfileError) as err:
            parse_germfile(text)
        assert err.value.line == line
    with pytest.raises(GermfileError) as err:
        parse_germfile("ring Fp:abc x y\nX: x\n")
    assert str(err.value) == "line 1: unknown field 'Fp:abc' (expected Q or Fp:p)"


# ---------------------------------------------------------------------------
# compute

def test_compute_worked(worked_path, capsys):
    code, out, _ = run(capsys, "compute", worked_path, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["invariants"] == {"muX": 5, "tauX": 5, "muF": 1,
                                 "muSection": 7, "brMinus": 7, "br": 9,
                                 "tor1": 2}
    assert doc["routes"]["br"]["direct"] == 9
    assert doc["routes"]["br"]["formula"] == 9
    assert doc["routes"]["br"]["codim2"] == 9
    assert doc["mismatches"] == []


def test_compute_subset_and_methods(worked_path, capsys):
    code, out, _ = run(capsys, "compute", worked_path,
                       "--invariants", "brMinus", "--method", "direct",
                       "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["invariants"] == {"brMinus": 7}
    assert doc["routes"]["brMinus"] == {"direct": 7}


def test_compute_without_f(tmp_path, capsys):
    p = tmp_path / "nof.germ"
    p.write_text("ring Q x y\nX: x^3+y^2\n")
    code, out, _ = run(capsys, "compute", str(p), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["invariants"] == {"muX": 2, "tauX": 2}


# corpus/nonwh_curve.germ moved by the first random_linear_images draw of
# random.Random(17): the relations-kernel basis of Theta_X reaches the degree
# cap here unless the Gebauer-Moller criteria prune its pairs
MOVED_NONWH_CURVE = """\
ring Q x y
X: x^4+2*x^3*y+x^2*y^2+2*x^5+5*x^4*y+10*x^3*y^2+10*x^2*y^3+5*x*y^4+y^5
f: 2*x+y
"""


@pytest.mark.parametrize("method", ["both", "direct"])
def test_compute_moved_nonwh_curve(method, tmp_path, capsys):
    gf = load_germfile(os.path.join(CORPUS, "nonwh_curve.germ"))
    images = random_linear_images(gf.ring, random.Random(17))
    moved = parse_germfile(MOVED_NONWH_CURVE)
    assert [render(p.substitute(images)) for p in gf.X.phi + (gf.f,)] == \
        [render(p) for p in moved.X.phi + (moved.f,)]
    p = tmp_path / "moved.germ"
    p.write_text(MOVED_NONWH_CURVE)
    code, out, _ = run(capsys, "compute", str(p), "--method", method, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["invariants"] == {"muX": 11, "tauX": 10, "muF": 0, "muSection": 3,
                                 "brMinus": 4, "br": 4, "tor1": 0}
    assert doc["mismatches"] == []


# corpus/nonwh_space.germ moved by the first random_linear_images draw of
# random.Random(0): the Tjurina module basis reached the degree cap before
# module bases had a corner; the relations kernel behind --method direct and
# both does not answer here
MOVED_NONWH_SPACE = """\
ring Q x y z
X: x^2+4*x*y+4*y^2+2*x*z+4*y*z+z^2+x^3, \
9*x^2+18*x*y+9*y^2+6*x*z+6*y*z+z^2-6*x^2*y-12*x*y^2-8*y^3-3*x^2*z-12*x*y*z\
-12*y^2*z-3*x*z^2-6*y*z^2-z^3
f: x
"""


def test_compute_formula_moved_nonwh_space(tmp_path, capsys):
    gf = load_germfile(os.path.join(CORPUS, "nonwh_space.germ"))
    images = random_linear_images(gf.ring, random.Random(0))
    moved = parse_germfile(MOVED_NONWH_SPACE)
    assert [render(p.substitute(images)) for p in gf.X.phi + (gf.f,)] == \
        [render(p) for p in moved.X.phi + (moved.f,)]
    p = tmp_path / "moved.germ"
    p.write_text(MOVED_NONWH_SPACE)
    code, out, _ = run(capsys, "compute", str(p), "--method", "formula", "--json")
    assert code == 0
    invariants = json.loads(out)["invariants"]
    assert (invariants["muX"], invariants["tauX"], invariants["brMinus"]) == (9, 9, 3)


def test_compute_not_icis(tmp_path, capsys):
    p = tmp_path / "bad.germ"
    p.write_text("ring Q x y z\nX: x*y, x*z\n")
    code, _, err = run(capsys, "compute", str(p))
    assert code == 2
    assert "not an ICIS" in err


@pytest.mark.parametrize("name", ["GERMCALC_DEGREE_CAP", "GERMCALC_STEP_BUDGET"])
def test_bad_environment_value(name, worked_path, capsys, monkeypatch):
    monkeypatch.setenv(name, "ten")
    code, out, err = run(capsys, "compute", worked_path, "--json")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and name in err


def test_compute_unit_generator_is_an_input_error(tmp_path, capsys):
    p = tmp_path / "empty.germ"
    p.write_text("ring Q x y\nX: 1+x\n")
    code, out, err = run(capsys, "compute", str(p), "--json")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "line 2" in err and "unit" in err


@pytest.mark.parametrize("command", ["compute", "verify"])
def test_f_needs_fewer_equations_than_variables(tmp_path, capsys, command):
    p = tmp_path / "point.germ"
    p.write_text("ring Q x\nf: x\nX: x^2\n")
    code, out, err = run(capsys, command, str(p))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "line 2" in err and "f:" in err


def test_non_isolated_section_is_an_input_error(tmp_path, capsys):
    # on the cone X, f restricts to x^3: the section is a triple pair of lines
    p = tmp_path / "cone.germ"
    p.write_text("ring Q x y z\nX: x^2+y^2+z^2\nf: x^2+y^2+z^2+x^3\n")
    code, out, err = run(capsys, "compute", str(p), "--invariants", "muSection")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "section" in err


def test_compute_missing_file(capsys):
    code, _, err = run(capsys, "compute", "/nonexistent.germ")
    assert code == 2


def test_json_deterministic(worked_path, capsys):
    docs = []
    for _ in range(2):
        _, out, _ = run(capsys, "compute", worked_path, "--json")
        doc = json.loads(out)
        doc.pop("timing")
        docs.append(json.dumps(doc, sort_keys=True))
    assert docs[0] == docs[1]


# ---------------------------------------------------------------------------
# verify

def test_verify_worked(worked_path, capsys):
    code, out, _ = run(capsys, "verify", worked_path, "--json")
    assert code == 0
    doc = json.loads(out)
    by_name = {e["identity"]: e for e in doc["identities"]}
    assert by_name["t22"]["status"] == "PASS"
    assert by_name["t46"]["status"] == "PASS"
    assert by_name["c412"]["status"] == "PASS"
    assert by_name["c412"]["lhs"] == 9 and by_name["c412"]["rhs"] == 9
    assert by_name["c49"]["status"] == "SKIPPED"
    assert by_name["p47"]["status"] == "PASS"
    assert by_name["cor23"]["status"] == "PASS"
    assert doc["verdict"] == "PASS"


def test_verify_identity_subset(worked_path, capsys):
    code, out, _ = run(capsys, "verify", worked_path,
                       "--identities", "t22,t46", "--json")
    assert code == 0
    doc = json.loads(out)
    assert [e["identity"] for e in doc["identities"]] == ["t22", "t46"]


def test_verify_c49_on_hypersurface(tmp_path, capsys):
    p = tmp_path / "a2.germ"
    p.write_text("ring Q x y\nX: x^3+y^2\nf: x+y^2\n")
    code, out, _ = run(capsys, "verify", str(p), "--identities", "c49",
                       "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["identities"][0]["status"] == "PASS"


def test_verify_cor23_skipped_without_flag(tmp_path, capsys):
    p = tmp_path / "plain.germ"
    p.write_text("ring Q x y\nX: x^3+y^2\n")
    code, out, _ = run(capsys, "verify", str(p), "--identities", "cor23",
                       "--json")
    assert code == 0
    assert json.loads(out)["identities"][0]["status"] == "SKIPPED"


def test_verify_unknown_identity(worked_path, capsys):
    code, _, err = run(capsys, "verify", worked_path, "--identities", "nope")
    assert code == 2


# ---------------------------------------------------------------------------
# default text output

def test_compute_text_output_matches_json(capsys):
    path = os.path.join(CORPUS, "worked.germ")
    _, out, _ = run(capsys, "compute", path, "--json")
    invariants = json.loads(out)["invariants"]
    code, text, _ = run(capsys, "compute", path)
    assert code == 0
    assert text.splitlines() == [f"{name} = {value}"
                                 for name, value in sorted(invariants.items())]
    assert "muX = 5" in text.splitlines()


def test_verify_text_output_matches_json(capsys):
    path = os.path.join(CORPUS, "worked.germ")
    _, out, _ = run(capsys, "verify", path, "--json")
    doc = json.loads(out)
    code, text, _ = run(capsys, "verify", path)
    assert code == 0
    expected = []
    for entry in doc["identities"]:
        if "lhs" in entry:
            expected.append(f"{entry['identity']}: {entry['status']}  "
                            f"lhs={entry['lhs']} rhs={entry['rhs']}")
        else:
            expected.append(f"{entry['identity']}: {entry['status']}  "
                            f"({entry['reason']})")
    assert text.splitlines() == expected + [f"verdict: {doc['verdict']}"]
    assert "t22: PASS  lhs=7 rhs=7" in expected


# ---------------------------------------------------------------------------
# conjecture

def test_conjecture_small(capsys):
    code, out, _ = run(capsys, "conjecture", "--n", "2", "--k", "2",
                       "--trials", "2", "--seed", "42", "--json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rows"]) == 2
    assert doc["euler_all_zero"] is True


def test_conjecture_zero_trials(capsys):
    code, out, _ = run(capsys, "conjecture", "--n", "2", "--k", "2",
                       "--trials", "0", "--json")
    assert code == 0
    assert json.loads(out)["rows"] == []


def test_conjecture_text_summary(capsys):
    code, text, _ = run(capsys, "conjecture", "--n", "2", "--k", "2",
                        "--trials", "2", "--seed", "42")
    assert code == 0
    lines = text.splitlines()
    assert len(lines) == 3
    assert all(line.startswith(f"trial {i}: tor=") and line.endswith(" PASS")
               for i, line in enumerate(lines[:2]))
    assert lines[2] == "matches: 2/2"


def test_conjecture_bad_params(capsys):
    code, _, err = run(capsys, "conjecture", "--n", "2", "--k", "3",
                       "--trials", "1")
    assert code == 2


BAD_FIELDS = {"Z": "unknown field 'Z' (expected Q or Fp:p)",
              "Fp:4": "modulus must be prime, got 4",
              "Fp:": "unknown field 'Fp:' (expected Q or Fp:p)",
              "Fp:abc": "unknown field 'Fp:abc' (expected Q or Fp:p)"}


@pytest.mark.parametrize("tag", sorted(BAD_FIELDS))
def test_conjecture_bad_field(tag, capsys):
    code, out, err = run(capsys, "conjecture", "--n", "2", "--k", "1",
                         "--trials", "1", "--field", tag)
    assert (code, out, err) == (2, "", f"error: --field: {BAD_FIELDS[tag]}\n")


LARGE_MODULI = {10**18 + 1: "modulus must be prime, got 1000000000000000001",
                2**89 - 1: "modulus must be below 2^64, got 618970019642690137449562111"}


@pytest.mark.parametrize("p", sorted(LARGE_MODULI))
def test_large_modulus_is_an_input_error(p, tmp_path, capsys):
    germ = tmp_path / "big.germ"
    germ.write_text(f"ring Fp:{p} x y\nX: x^2+y^3\n")
    code, out, err = run(capsys, "compute", str(germ))
    assert (code, out) == (2, "") and err.count("\n") == 1
    assert LARGE_MODULI[p] in err
    code, out, err = run(capsys, "conjecture", "--n", "2", "--k", "1",
                         "--trials", "1", "--field", f"Fp:{p}")
    assert (code, out, err) == (2, "", f"error: --field: {LARGE_MODULI[p]}\n")


def test_compute_over_a_large_prime(tmp_path, capsys):
    germ = tmp_path / "big.germ"
    germ.write_text("ring Fp:1000000000000000003 x y\nX: x^2+y^3\n")
    code, out, _ = run(capsys, "compute", str(germ), "--json")
    assert code == 0 and json.loads(out)["invariants"]["muX"] == 2


@pytest.mark.parametrize("tag", ["Q", "Fp:7"])
def test_conjecture_field(tag, capsys):
    code, out, _ = run(capsys, "conjecture", "--n", "2", "--k", "1",
                       "--trials", "1", "--field", tag, "--json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rows"]) == 1 and doc["euler_all_zero"] is True


# ---------------------------------------------------------------------------
# lc and oracle

def test_lc_fiber_variable_clash_is_an_input_error(tmp_path, capsys):
    p = tmp_path / "clash.germ"
    p.write_text("ring Q x p2\nX: x^2+p2^3\n")
    code, out, err = run(capsys, "lc", str(p), "--out", str(tmp_path / "lc.json"))
    assert (code, out) == (2, "")
    assert err == "error: variable 'p2' clashes with the fiber variables p1..p2\n"


def test_lc_round_trip(tmp_path, capsys):
    p = tmp_path / "line.germ"
    p.write_text("ring Q x\nX: x\n")
    out_path = tmp_path / "lc.json"
    code, _, _ = run(capsys, "lc", str(p), "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["lc"] == ["x*p1"]
    assert doc["lcMinus"] == ["x"]
    assert doc["variables"] == ["x", "p1"]
    # rendered generators re-parse in the doubled ring
    from germcalc import GermRing
    from germcalc.invariants import _cotangent_ring
    from germcalc.germfile import load_germfile
    R2n = _cotangent_ring(load_germfile(str(p)).ring)
    for s in doc["lc"] + doc["lcMinus"] + doc["lcT"]:
        R2n.parse(s)


@pytest.fixture
def e7_path(tmp_path):
    p = tmp_path / "e7.germ"
    p.write_text("ring Q x y\nX: 3*x^2+y^3, 3*x*y^2\n")
    return str(p)


def test_oracle_colength(e7_path, capsys):
    code, out, _ = run(capsys, "oracle", "colength", e7_path, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["oracle"] == 7
    assert doc["engine"] == 7
    assert doc["agree"] is True


def test_oracle_text_summary(e7_path, capsys):
    code, text, _ = run(capsys, "oracle", "colength", e7_path)
    assert code == 0
    assert text.splitlines() == ["oracle colength: 7", "engine colength: 7"]


@pytest.mark.parametrize("truncation", ["0", "1", "-3"])
def test_oracle_truncation_below_two_is_an_input_error(truncation, e7_path,
                                                       capsys):
    code, out, err = run(capsys, "oracle", "colength", e7_path, "--json",
                         "--truncation", truncation)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "truncation" in err


def test_oracle_disagreement_fails(e7_path, capsys, monkeypatch):
    monkeypatch.setattr("germcalc.cli.oracle_colength",
                        lambda gens, truncation: 6)
    code, out, err = run(capsys, "oracle", "colength", e7_path, "--json")
    assert code == 1
    doc = json.loads(out)
    assert (doc["oracle"], doc["engine"], doc["agree"]) == (6, 7, False)
    assert err.count("\n") == 1


def test_route_disagreement_fails(worked_path, capsys, monkeypatch):
    monkeypatch.setattr(germcalc.invariants, "koszul_tor",
                        lambda I, J: [0, 99])
    code, out, err = run(capsys, "compute", worked_path, "--invariants",
                         "tor1", "--json")
    assert code == 1
    assert out == ""
    assert err == "error: Tor1 routes disagree: subquotient 2, Koszul 99\n"
    # corpus reports it as an error item
    code, out, _ = run(capsys, "corpus", os.path.dirname(worked_path), "--json")
    assert code == 1
    [item] = json.loads(out)["items"]
    assert item["verdict"] == "ERROR" and "Koszul 99" in item["error"]


# ---------------------------------------------------------------------------
# corpus

def test_corpus_runner(tmp_path, capsys):
    (tmp_path / "a.germ").write_text("ring Q x y\nX: x^3+y^2\nf: y\n")
    (tmp_path / "b.germ").write_text(WORKED)
    code, out, _ = run(capsys, "corpus", str(tmp_path), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "PASS"
    assert len(doc["items"]) == 2


@pytest.fixture
def small_corpus(tmp_path):
    for name in ("a2_cusp", "d4", "e7"):
        shutil.copy(os.path.join(CORPUS, name + ".germ"), tmp_path)
    return str(tmp_path)


def test_corpus_workers_agree(small_corpus, capsys):
    reports = []
    for workers in ("1", "2"):
        code, out, _ = run(capsys, "corpus", small_corpus, "--workers",
                           workers, "--json")
        assert code == 0
        doc = json.loads(out)
        doc.pop("timing")
        reports.append(doc)
    assert reports[0] == reports[1]
    assert len(reports[0]["items"]) == 3


def test_corpus_text_summary(small_corpus, capsys):
    code, text, _ = run(capsys, "corpus", small_corpus)
    assert code == 0
    assert text.splitlines() == [
        f"{os.path.join(small_corpus, name)}.germ: PASS"
        for name in ("a2_cusp", "d4", "e7")] + ["verdict: PASS"]


def test_corpus_pool_has_at_most_one_worker_per_file(small_corpus, capsys, monkeypatch):
    asked = []

    class InProcessPool:
        """Records max_workers and maps in this process: no process starts."""

        def __init__(self, max_workers=None):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    code, _, _ = run(capsys, "corpus", small_corpus, "--workers", "64", "--json")
    assert code == 0 and asked == [3]


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_corpus_workers_below_one_is_an_input_error(workers, small_corpus,
                                                    capsys):
    code, out, err = run(capsys, "corpus", small_corpus, "--workers", workers)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "--workers" in err


def test_corpus_empty_dir(tmp_path, capsys):
    code, _, err = run(capsys, "corpus", str(tmp_path))
    assert code == 2


def test_corpus_bad_germfile_is_an_error_item(tmp_path, capsys):
    (tmp_path / "a.germ").write_text("ring Q x y\nX: x^3+y^2\nf: y\n")
    (tmp_path / "b.germ").write_text("ring Q x x\nX: x\n")
    code, out, _ = run(capsys, "corpus", str(tmp_path), "--json")
    assert code == 1
    doc = json.loads(out)
    assert [i["verdict"] for i in doc["items"]] == ["PASS", "ERROR"]
    assert doc["items"][1]["error"].startswith("line 1:")


# ---------------------------------------------------------------------------
# golden corpus reports

def corpus_reports() -> dict:
    """The `compute --method both --json` and `verify --json` reports of every
    corpus germ, timing removed, keyed by file name."""
    reports = {}
    for path in sorted(glob.glob(os.path.join(CORPUS, "*.germ"))):
        entry = {}
        for command in (["compute", path, "--method", "both"],
                        ["verify", path]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(command + ["--json"])
            assert code == 0, (path, command[0])
            doc = json.loads(out.getvalue())
            doc.pop("timing")
            entry[command[0]] = doc
        reports[os.path.basename(path)] = entry
    return reports


def test_corpus_reports_match_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    got = corpus_reports()
    assert sorted(got) == sorted(golden)
    for name in golden:
        assert json.dumps(got[name], sort_keys=True) == \
            json.dumps(golden[name], sort_keys=True), name


def test_corpus_lc_matches_golden(tmp_path, capsys):
    """The lc JSON of every corpus germ that is not stopped by the degree cap."""
    with open(GOLDEN_LC, encoding="utf-8") as fh:
        golden = json.load(fh)
    out_path = tmp_path / "lc.json"
    got = {}
    for path in sorted(glob.glob(os.path.join(CORPUS, "*.germ"))):
        code, _, err = run(capsys, "lc", path, "--out", str(out_path))
        if code == 3:
            # nonwh_space: the colon's relations-kernel basis behind LC(X)^-
            # in the doubled ring reaches the degree cap (in about 1 s)
            assert err.startswith("resource cap:")
            continue
        assert code == 0, path
        got[os.path.basename(path)] = json.loads(out_path.read_text())
    assert sorted(got) == sorted(golden)
    for name in golden:
        # lcMinus is a generating set of LC(X)^-, not a canonical list: the
        # same generators, exactly, in any order
        for doc in (got[name], golden[name]):
            doc["lcMinus"] = sorted(doc["lcMinus"])
        assert got[name] == golden[name], name


def test_verify_computes_each_invariant_once(monkeypatch):
    calls = {}
    for name in ("tjurina", "milnor_chain", "theta_x"):
        original = getattr(germcalc.invariants, name)

        def counted(*args, name=name, original=original, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        for mod_name, module in list(sys.modules.items()):
            if ((mod_name == "germcalc" or mod_name.startswith("germcalc."))
                    and vars(module).get(name) is original):
                monkeypatch.setattr(module, name, counted)
    gf = load_germfile(os.path.join(CORPUS, "worked.germ"))
    assert verify_report(gf, list(ALL_IDENTITIES))["verdict"] == "PASS"
    # milnor_chain runs for X only: the section's Milnor number is the
    # Le-Greuel colength of J(f,phi) + I_X minus mu(X)
    assert calls == {"tjurina": 1, "milnor_chain": 1, "theta_x": 1}
