import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from slvir.cli import main, parse_factored_poly, parse_sl2
from slvir.lie import Automorphism
from slvir.scalar import Scalar

S = Scalar.of


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_factored_poly():
    assert parse_factored_poly("t-1") == [(S(1), 1)]
    assert parse_factored_poly("(t-1)^2") == [(S(1), 2)]
    assert parse_factored_poly("(t-1)(t+2)^2") == [(S(1), 1), (S(-2), 2)]
    assert parse_factored_poly("t-1/2+1*i") == [(S("1/2-1*i"), 1)]
    assert parse_factored_poly("(t - 1)(t - 2)") == [(S(1), 1), (S(2), 1)]
    with pytest.raises(ValueError):
        parse_factored_poly("t^2-1")
    with pytest.raises(ValueError):
        parse_factored_poly("")


def test_poly_with_inner_space_exits_two(capsys):
    # "t - 1 2" used to be read as t - 12
    code, out, err = run(capsys, "verify", "restriction", "--poly", "t - 1 2", "--mu", "1")
    assert code == 2 and out == "" and "t - 1 2" in err
    for text in ("t - 2 i", "t - 1 / 2", "(t-1) (t - 2)^2 2"):
        with pytest.raises(ValueError):
            parse_factored_poly(text)
    assert parse_factored_poly(" (t - 1) ^ 2 (t + 1/2 - 2*i) ") == [(S(1), 2), (S("-1/2+2*i"), 1)]


def test_parse_sl2():
    x = parse_sl2("1,-3,-9")
    assert (x.ce, x.ch, x.cf) == (S(1), S(-3), S(-9))
    with pytest.raises(ValueError):
        parse_sl2("1,2")


def test_simplicity_verb(capsys):
    code, out, _ = run(capsys, "simplicity", "--xi", "0", "--tau", "1")
    assert code == 0
    data = json.loads(out)
    assert data["irreducible"] is False
    assert data["witness_i"] == 0


def test_scalar_with_inner_space_exits_two(capsys):
    # "1 2" used to be read as 12
    code, out, err = run(capsys, "simplicity", "--xi", "1 2", "--tau", "9")
    assert code == 2 and out == "" and "1 2" in err
    code, out, _ = run(capsys, "simplicity", "--xi", "1 + 2*i", "--tau", "3 - i")
    assert code == 0
    assert json.loads(out)["params"] == {"xi": S("1+2*i").to_json(),
                                         "tau": S("3-i").to_json()}


def test_verify_dense_composition(capsys):
    code, out, _ = run(capsys, "verify", "dense", "--xi", "0", "--tau", "9",
                       "--depth", "6")
    assert code == 0
    data = json.loads(out)
    assert data["branch"] == "composition_series"
    assert data["j0"] == 1
    assert all(data["flags"].values())
    assert "elapsed_ms" not in data


def test_verify_restriction_zero_root_is_invalid(capsys):
    code, out, err = run(capsys, "verify", "restriction", "--poly", "t-0",
                         "--mu", "1")
    assert code == 2
    assert "error" in err


def test_verify_restriction_double_root(capsys):
    code, out, _ = run(capsys, "verify", "restriction", "--poly", "(t-1)^2",
                       "--p", "0,1", "--depth", "5")
    assert code == 0
    data = json.loads(out)
    assert data["target"]["inner"] == {"family": "W", "eta": ["-1", "1", "0", "1"]}


def test_verify_tensor(capsys):
    code, out, _ = run(capsys, "verify", "tensor-vermas", "--lambda1", "1",
                       "--lambda2", "2", "--mu1", "3", "--mu2", "1",
                       "--depth", "4")
    assert code == 0
    assert json.loads(out)["target"]["inner"]["xi"] == ["2", "1", "0", "1"]


def test_verify_twist_induction(capsys):
    code, out, _ = run(capsys, "verify", "twist-induction", "--x", "1,-3,-9",
                       "--mu0", "5", "--depth", "5")
    assert code == 0
    assert json.loads(out)["target"]["inner"]["eta"] == ["5", "1", "0", "1"]


def test_classify_verbs(capsys):
    code, out, _ = run(capsys, "classify", "--x", "1,-3,-5")
    assert code == 0
    assert json.loads(out)["kind"] == "h_pair"
    code, out, _ = run(capsys, "classify", "--x", "0,1,0", "--y", "1,0,0")
    assert code == 0
    assert json.loads(out)["kind"] == "b_plus"
    code, _, err = run(capsys, "classify", "--x", "1,0,0", "--y", "0,0,1")
    assert code == 2 and "error" in err


def test_act_verb(capsys):
    module = json.dumps({"family": "Verma", "delta": "2"})
    vec = json.dumps([[1, "1"]])
    code, out, _ = run(capsys, "act", "--module", module, "--elt", "e",
                       "--vec", vec)
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "modvec/1"
    assert data["terms"] == [[0, ["2", "1", "0", "1"]]]
    # an element's coordinates take the list form of a scalar too
    code, out, _ = run(capsys, "act", "--module", module,
                       "--elt", json.dumps({"e": ["1", "2", "0", "1"]}), "--vec", vec)
    assert code == 0
    assert json.loads(out)["terms"] == [[0, ["1", "1", "0", "1"]]]


def test_act_with_vir_element(capsys):
    module = json.dumps({"family": "VirPoly", "roots": [["2", 1]],
                         "polys": [["1"]], "depth": 4})
    vec = json.dumps([[[0, 0, 0], "1"]])
    code, out, _ = run(capsys, "act", "--module", module, "--elt", "e_3",
                       "--vec", vec)
    assert code == 0
    assert json.loads(out)["family"] == "VirPoly"


def test_weights_csv(capsys):
    module = json.dumps({"family": "Xbar", "xi": "0", "tau": "9"})
    vec = json.dumps([[["e", 1], "1"], [["f", 2], "1/2"]])
    code, out, _ = run(capsys, "weights", "--module", module, "--vec", vec,
                       "--csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "weight,basis_key,coefficient"
    assert lines[1].startswith("-4,")
    assert lines[2].startswith("2,")


def test_weights_rejects_non_weight_module(capsys):
    module = json.dumps({"family": "W", "eta": "1"})
    vec = json.dumps([[[0, 0], "1"]])
    code, _, err = run(capsys, "weights", "--module", module, "--vec", vec)
    assert code == 2 and "error" in err


def test_output_is_deterministic(capsys):
    argv = ["verify", "dense", "--xi", "0", "--tau", "9", "--depth", "6"]
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


def test_timing_flag_adds_elapsed(capsys):
    code, out, _ = run(capsys, "simplicity", "--xi", "0", "--tau", "2",
                       "--timing")
    assert code == 0
    assert "elapsed_ms" in json.loads(out)


def test_text_output_is_indented(capsys):
    code, out, _ = run(capsys, "simplicity", "--xi", "0", "--tau", "2",
                       "--text")
    assert code == 0
    assert out.startswith("{\n")
    assert json.loads(out)["irreducible"] is True


def test_depth_below_one_is_invalid(capsys):
    code, _, err = run(capsys, "verify", "dense", "--xi", "0", "--tau", "9",
                       "--depth", "0")
    assert code == 2 and "depth" in err


def test_report_config(tmp_path, capsys):
    config = {
        "suites": [
            {"name": "dense", "params": {"xi": "0", "tau": "9"}, "depth": 6},
            {"name": "simplicity", "params": {"xi": "0", "tau": "2"}},
            {"name": "twist_induction",
             "params": {"x": "0,0,1", "mu0": "2"}, "depth": 4},
        ],
        "parallel": True,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, out, _ = run(capsys, "report", "--config", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["all_ok"] is True
    assert [r["suite"] for r in data["reports"]] == \
        ["dense", "simplicity", "twist_induction"]


def test_report_config_empty_and_invalid(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"suites": []}))
    code, out, _ = run(capsys, "report", "--config", str(path))
    assert code == 0
    assert json.loads(out)["reports"] == []

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"suites": [{"name": "mystery"}]}))
    code, _, err = run(capsys, "report", "--config", str(bad))
    assert code == 2

    # an entry that is not an object names itself, with no traceback
    bad.write_text(json.dumps({"suites": ["dense"]}))
    code, out, err = run(capsys, "report", "--config", str(bad))
    assert code == 2 and out == ""
    assert "'dense'" in err and "Traceback" not in err

    # an unknown entry key names itself: "dpeth" ran at the default depth
    bad.write_text(json.dumps({"suites": [
        {"name": "twist_induction", "params": {"x": "1,-3,-9", "mu0": "5"}, "dpeth": 500}]}))
    code, out, err = run(capsys, "report", "--config", str(bad))
    assert (code, out) == (2, "")
    assert "'dpeth'" in err and "Traceback" not in err

    # an unknown top-level key names itself: "paralel" was ignored
    bad.write_text(json.dumps({"suites": [], "paralel": True}))
    code, out, err = run(capsys, "report", "--config", str(bad))
    assert (code, out) == (2, "")
    assert "unknown key 'paralel' in a config" in err

    # "parallel" must be a JSON bool: "maybe" was accepted
    bad.write_text(json.dumps({"suites": [], "parallel": "maybe"}))
    code, out, err = run(capsys, "report", "--config", str(bad))
    assert (code, out) == (2, "")
    assert "'parallel'" in err and "'maybe'" in err

    missing = tmp_path / "missing.json"
    code, _, err = run(capsys, "report", "--config", str(missing))
    assert code == 2


@pytest.mark.parametrize("value", [7.5, True, False, 0, -3, "7", None, [7]])
def test_invalid_config_depth_exits_two(tmp_path, capsys, value):
    # a valid entry first: nothing runs and nothing is emitted
    config = {"suites": [
        {"name": "twist_induction", "params": {"x": "0,0,1", "mu0": "2"}, "depth": 4},
        {"name": "twist_induction", "params": {"x": "1,-3,-9", "mu0": "5"}, "depth": value},
    ]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, out, err = run(capsys, "report", "--config", str(path))
    assert code == 2
    assert out == ""
    assert "depth" in err and "Traceback" not in err


def test_config_depth_integer_is_used(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"suites": [
        {"name": "twist_induction", "params": {"x": "0,0,1", "mu0": "2"}, "depth": 7}]}))
    code, out, _ = run(capsys, "report", "--config", str(path))
    assert code == 0
    assert json.loads(out)["reports"][0]["depth"] == 7


VIRPOLY = {"family": "VirPoly", "roots": [["2", 1]], "polys": [["1"]], "depth": 4}


@pytest.mark.parametrize("name, value", [("depth", v) for v in (7.5, True, "7", 0)]
                         + [("multiplicity", v) for v in (1.5, True, "1", 0)])
def test_invalid_module_integers_exit_two(capsys, name, value):
    # a VirPoly spec's depth and root multiplicities are JSON integers >= 1
    spec = dict(VIRPOLY, depth=value) if name == "depth" else dict(VIRPOLY, roots=[["2", value]])
    code, out, err = run(capsys, "act", "--module", json.dumps(spec), "--elt", "e_3",
                         "--vec", json.dumps([[[0, 0, 0], "1"]]))
    assert code == 2
    assert out == ""
    assert name in err and "Traceback" not in err


@pytest.mark.parametrize("value", [1.5, True, "1", 0])
def test_invalid_config_multiplicity_exits_two(tmp_path, capsys, value):
    config = {"suites": [
        {"name": "twist_induction", "params": {"x": "0,0,1", "mu0": "2"}, "depth": 4},
        {"name": "restriction", "params": {"roots": [["2", value]], "polys": [["1"]]},
         "depth": 4},
    ]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, out, err = run(capsys, "report", "--config", str(path))
    assert code == 2
    assert out == ""
    assert "multiplicity" in err and "Traceback" not in err


def test_string_poly_exits_two(tmp_path, capsys):
    # a poly given as a string is not a coefficient list: "12" was read as (1, 2)
    spec = dict(VIRPOLY, roots=[["1", 2]], polys=["12"])
    code, out, err = run(capsys, "act", "--module", json.dumps(spec), "--elt", "e_3",
                         "--vec", json.dumps([[[0, 0, 0], "1"]]))
    assert (code, out) == (2, "")
    assert "polys" in err and "Traceback" not in err
    config = {"suites": [{"name": "restriction",
                          "params": {"roots": [["1", 2]], "polys": ["12"]}, "depth": 4}]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, out, err = run(capsys, "report", "--config", str(path))
    assert (code, out) == (2, "")
    assert "polys" in err and "Traceback" not in err


@pytest.mark.parametrize("terms, message", [
    ([[1.5, "1"]], "index"),
    ([[True, "1"]], "index"),
    ([[1, "1"], [1, "2"]], "repeated"),
], ids=["fraction", "bool", "repeated"])
def test_bad_virasoro_indices_exit_two(capsys, terms, message):
    # 1.5 was truncated to 1, true read as 1, and a repeated index
    # overwrote the earlier one, so [[1.5, "1"], [true, "2"]] acted as 2*e_1
    code, out, err = run(capsys, "act", "--module", json.dumps(VIRPOLY), "--elt",
                         json.dumps({"terms": terms}), "--vec", json.dumps([[[0, 0, 0], "1"]]))
    assert (code, out) == (2, "")
    assert message in err and "Traceback" not in err


# e_n projects t^n in |n| steps on coefficients that grow with |n|: on this
# module e_20000 took 7 s and ended in a str() of a 4,300-digit int, and
# e_200000 ran on for minutes
TWO_ROOTS = {"family": "VirPoly", "roots": [["1", 1], ["3", 1]], "polys": [["1"], ["1"]],
             "depth": 2}


@pytest.mark.parametrize("elt, index", [("e_1001", 1001), ("e_-1001", -1001),
                                        (json.dumps({"terms": [[5000, "1"]]}), 5000)])
def test_virasoro_index_beyond_the_limit_exits_two(capsys, elt, index):
    start = time.perf_counter()
    code, out, err = run(capsys, "act", "--module", json.dumps(TWO_ROOTS), "--elt", elt,
                         "--vec", json.dumps([[[0, 0, 0], "1"]]))
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert f"Virasoro index {index} exceeds the limit of 1000" in err and "Traceback" not in err


def test_virasoro_index_at_the_limit_acts(capsys):
    code, out, _ = run(capsys, "act", "--module", json.dumps(TWO_ROOTS), "--elt", "e_1000",
                       "--vec", json.dumps([[[0, 0, 0], "1"]]))
    assert code == 0 and json.loads(out)["terms"]


def test_depth_env_override(capsys, monkeypatch):
    monkeypatch.setenv("SLVIR_DEPTH", "7")
    code, out, _ = run(capsys, "verify", "dense", "--xi", "0", "--tau", "2")
    assert code == 0
    assert json.loads(out)["depth"] == 7


def test_depth_env_is_read_on_every_call(capsys, monkeypatch):
    # the parser is built once per process; the default depth is not
    dense = ("verify", "dense", "--xi", "0", "--tau", "2")
    tensor = ("verify", "tensor-vermas", "--lambda1", "1", "--lambda2", "2",
              "--mu1", "1", "--mu2", "2")
    for value, want in [("7", 7), ("8", 8)]:
        monkeypatch.setenv("SLVIR_DEPTH", value)
        assert json.loads(run(capsys, *dense)[1])["depth"] == want
    monkeypatch.delenv("SLVIR_DEPTH")
    assert json.loads(run(capsys, *dense)[1])["depth"] == 6
    assert json.loads(run(capsys, *tensor)[1])["depth"] == 5
    assert json.loads(run(capsys, *dense, "--depth", "9")[1])["depth"] == 9
    monkeypatch.setenv("SLVIR_DEPTH", "abc")
    assert run(capsys, "simplicity", "--xi", "0", "--tau", "2")[0] == 2


@pytest.mark.parametrize("value", ["abc", "-3", "0", "7.5", " 7"])
def test_invalid_depth_env_exits_two(capsys, monkeypatch, value):
    monkeypatch.setenv("SLVIR_DEPTH", value)
    code, out, err = run(capsys, "verify", "dense", "--xi", "0", "--tau", "2")
    assert code == 2
    assert out == ""
    assert "SLVIR_DEPTH" in err and "Traceback" not in err


@pytest.mark.parametrize("value", [101, 1000])
@pytest.mark.parametrize("where", ["--depth", "SLVIR_DEPTH", "config", "VirPoly"])
def test_depth_above_the_cap_exits_two(tmp_path, capsys, monkeypatch, where, value):
    # refused before anything is built: no deep case runs here
    if where == "--depth":
        argv = ["verify", "dense", "--xi", "0", "--tau", "9", "--depth", str(value)]
    elif where == "SLVIR_DEPTH":
        monkeypatch.setenv("SLVIR_DEPTH", str(value))
        argv = ["verify", "restriction", "--poly", "(t-1)(t-2)", "--p", "1", "--p", "0"]
    elif where == "config":
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"suites": [
            {"name": "dense", "params": {"xi": "0", "tau": "9"}, "depth": 6},
            {"name": "dense", "params": {"xi": "0", "tau": "9"}, "depth": value}]}))
        argv = ["report", "--config", str(path)]
    else:
        argv = ["act", "--module", json.dumps(dict(VIRPOLY, depth=value)), "--elt", "e_3",
                "--vec", json.dumps([[[0, 0, 0], "1"]])]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"{value} exceeds the limit of 100" in err and "Traceback" not in err


# one command per suite, and the one-entry report config with the same params
SUITE_CASES = {
    "dense": (["verify", "dense", "--xi", "0", "--tau", "9", "--depth", "6"],
              {"params": {"xi": "0", "tau": ["9", "1", "0", "1"]}, "depth": 6}),
    "restriction": (["verify", "restriction", "--poly", "(t-1)^2", "--p", "0,1", "--depth", "5"],
                    {"params": {"roots": [["1", 2]], "polys": [["0", "1"]]}, "depth": 5}),
    "tensor_vermas": (["verify", "tensor-vermas", "--lambda1", "1", "--lambda2", "2",
                       "--mu1", "3", "--mu2", "1", "--depth", "4"],
                      {"params": {"lambda1": "1", "lambda2": "2", "mu1": "3", "mu2": "1"},
                       "depth": 4}),
    "twist_induction": (["verify", "twist-induction", "--x", "1,-3,-9", "--mu0", "5",
                         "--depth", "5"],
                        {"params": {"x": [1, -3, -9], "mu0": "5"}, "depth": 5}),
    "simplicity": (["simplicity", "--xi", "0", "--tau", "1"],
                   {"params": {"xi": "0", "tau": "1"}}),
}


@pytest.mark.parametrize("name", sorted(SUITE_CASES))
def test_verb_and_report_entry_give_the_same_report(tmp_path, capsys, monkeypatch, name):
    # with the depth given, and with none: then both take the suite's default
    monkeypatch.delenv("SLVIR_DEPTH", raising=False)
    argv, entry = SUITE_CASES[name]
    # --depth N comes last in every argv that has it
    no_depth = (argv[:argv.index("--depth")] if "--depth" in argv else argv,
                {k: v for k, v in entry.items() if k != "depth"})
    for argv, entry in ((argv, entry), no_depth):
        code, out, _ = run(capsys, *argv)
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"suites": [dict(entry, name=name)]}))
        report_code, report_out, _ = run(capsys, "report", "--config", str(path))
        assert code == report_code == 0
        assert json.loads(report_out)["reports"] == [json.loads(out)]


REPO = Path(__file__).resolve().parent.parent
SAMPLE_REPORT_MD5 = "5fde47567633fcc89a9abb37ecc91689"


@pytest.mark.parametrize("hash_seed", ["0", "1", "7"])
def test_sample_report_is_byte_identical_across_hash_seeds(hash_seed):
    # the sample config's report, byte for byte, whatever the string hashing
    path = [str(REPO / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join(path))
    env.pop("SLVIR_DEPTH", None)
    proc = subprocess.run(
        [sys.executable, "-m", "slvir.cli", "report",
         "--config", str(REPO / "configs" / "sample-suites.json")],
        env=env, capture_output=True, check=True)
    assert hashlib.md5(proc.stdout).hexdigest() == SAMPLE_REPORT_MD5


# Scalar operator calls of one in-process sample report, counted the way
# perfbench/tracing.py counts them: 372 when recorded, from a cold start,
# with a margin of about 5% (721 while algebra elements summed Scalar terms
# and automorphisms built their image rows from Scalar products,
# 1,338 while MuData.value_at summed Scalar
# products, Scalar.__pow__ multiplied Scalars and the tensor suite built an
# automorphism inverse it did not use,
# 1,498 while each automorphism built a Scalar 3x3 matrix, 1,683 while
# Automorphism.apply took a Scalar matrix product, 3,166 while every letter
# row went through a Scalar closed form); warm process-wide caches only
# lower it
SAMPLE_REPORT_SCALAR_OPS = 390
_SCALAR_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
               "__truediv__", "__rtruediv__", "__neg__")


def _count_scalar_ops(monkeypatch) -> list:
    """A one-item list that counts the Scalar operator calls made from now on."""
    calls = [0]

    def counted(fn):
        def wrapper(*args):
            calls[0] += 1
            return fn(*args)
        return wrapper

    for op in _SCALAR_OPS:
        monkeypatch.setattr(Scalar, op, counted(getattr(Scalar, op)))
    return calls


def test_sample_report_scalar_work_stays_bounded(capsys, monkeypatch):
    # a host-independent work guard: the action path builds its rows in
    # integer arithmetic, so a Scalar round trip coming back shows here
    calls = _count_scalar_ops(monkeypatch)
    code, out, _ = run(capsys, "report", "--config",
                       str(REPO / "configs" / "sample-suites.json"))
    assert code == 0 and hashlib.md5(out.encode()).hexdigest() == SAMPLE_REPORT_MD5
    assert 0 < calls[0] <= SAMPLE_REPORT_SCALAR_OPS, calls[0]


def test_building_an_automorphism_stays_cheap(monkeypatch):
    # no Scalar operator call to build it, as its image rows are built in
    # integers, and 2 with its inverse (the adjugate's two negations) when
    # recorded (18 and 38 while the images were Scalar products, 31 and 62
    # while each automorphism built a Scalar 3x3 matrix and recognised its
    # family at once)
    lam1, lam2 = S("1/2+i"), S(-3)
    calls = _count_scalar_ops(monkeypatch)
    aut = Automorphism.gamma2(lam1, lam2)
    assert calls[0] == 0, calls[0]
    aut.inverse()
    assert calls[0] <= 2, calls[0]


GOLDEN = json.loads((REPO / "tests" / "cli_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=[f"{i:02d}-{c['argv'][0]}" for i, c in
                                              enumerate(GOLDEN)])
def test_cli_output_matches_golden(capsys, case):
    # classify, act, weights, verify and simplicity commands (--text among
    # them) keep their recorded stdout, stderr and exit code byte for byte
    code, out, err = run(capsys, *case["argv"])
    assert (code, out, err) == (case["code"], case["stdout"], case["stderr"])


def test_exit_code_one_when_flags_fail(capsys, monkeypatch):
    import slvir.cli as cli_mod

    class FakeReport:
        suite = "dense"
        params = {}
        flags = {"broken": False}
        witness = {"kind": "synthetic"}
        depth = 6
        all_ok = False

        def to_json(self, elapsed_ms=None):
            return {"schema": "report/1", "suite": self.suite, "params": {},
                    "flags": self.flags, "depth": self.depth}

    monkeypatch.setattr(cli_mod, "suite_dense", lambda *a, **k: FakeReport())
    code, out, _ = run(capsys, "verify", "dense", "--xi", "0", "--tau", "9")
    assert code == 1
    assert json.loads(out)["flags"] == {"broken": False}


def test_unknown_arguments_exit_two(capsys):
    assert main(["simplicity", "--xi", "0"]) == 2
    assert main(["verify", "dense", "--xi", "bogus!", "--tau", "1"]) == 2


def test_malformed_payloads_exit_two(capsys):
    module = json.dumps({"family": "Verma", "delta": "2"})
    assert main(["act", "--module", module, "--elt", "e", "--vec", "{oops"]) == 2
    assert main(["act", "--module", module, "--elt", "e",
                 "--vec", json.dumps([[{"bad": 1}, "1"]])]) == 2
    assert main(["act", "--module", "42", "--elt", "e", "--vec", "[]"]) == 2
    # an element in JSON must be an object
    for elt in ("[1,2]", '"q"'):
        assert main(["act", "--module", module, "--elt", elt, "--vec", "[[1, \"1\"]]"]) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    # an unknown key is an error naming it, never dropped: each of these
    # acted by e alone, dropped the e, or built depth 6
    for spec, elt, vec, key in [
        ({"family": "W", "eta": "1"}, '{"e": 1, "ff": 2}', [[[1, 0], "1"]], "ff"),
        (VIRPOLY, '{"terms": [[1, "1"]], "e": 5}', [[[0, 0, 0], "1"]], "e"),
        (dict(VIRPOLY, dpeth=200), "e_1", [[[0, 0, 0], "1"]], "dpeth"),
    ]:
        code, out, err = run(capsys, "act", "--module", json.dumps(spec), "--elt", elt,
                             "--vec", json.dumps(vec))
        assert (code, out) == (2, "")
        assert repr(key) in err and "Traceback" not in err


@pytest.mark.parametrize("module, key", [
    ({"family": "W", "eta": "1"}, [1.5, 0]),
    ({"family": "W", "eta": "1"}, [True, 0]),
    ({"family": "X", "xi": "1"}, [0, "1"]),
    ({"family": "Verma", "delta": "2"}, True),
    ({"family": "LowVerma", "delta": "2"}, 1.0),
    ({"family": "Xbar", "xi": "1", "tau": "2"}, ["e", 1.5]),
    ({"family": "VirPoly", "roots": [["2", 1]], "polys": [["1"]], "depth": 4}, [0, 0, True]),
])
def test_coerced_vector_keys_exit_two(capsys, module, key):
    # a key entry must be a JSON integer >= 0: no truncation, no bool as 1
    code, out, err = run(capsys, "act", "--module", json.dumps(module), "--elt", "f",
                         "--vec", json.dumps([[key, "1"]]))
    assert code == 2
    assert out == ""
    assert "bad" in err and "Traceback" not in err


@pytest.mark.parametrize("aut", [
    {"kind": "gamma", "params": "12"},
    {"kind": "gamma", "params": ["1", "5", "7"]},
    {"kind": "gamma2", "params": ["1"]},
    {"kind": "sigma", "params": ["1"]},
], ids=["string", "too-many", "too-few", "sigma-with-param"])
def test_automorphism_params_have_the_kinds_arity(capsys, aut):
    # "12" used to be read as gamma(1), and surplus params were dropped
    spec = {"family": "Twist", "inner": {"family": "W", "eta": "1"}, "aut": aut}
    code, out, err = run(capsys, "act", "--module", json.dumps(spec), "--elt", "e",
                         "--vec", json.dumps([[[0, 0], "1"]]))
    assert code == 2
    assert out == ""
    assert "params" in err and "Traceback" not in err


def test_integer_vector_keys_still_act(capsys):
    code, out, _ = run(capsys, "act", "--module", json.dumps({"family": "W", "eta": "1"}),
                       "--elt", "f", "--vec", json.dumps([[[1, 0], "1"]]))
    assert code == 0
    assert [key for key, _ in json.loads(out)["terms"]] == [[2, 0]]


W_SPEC = json.dumps({"family": "W", "eta": "1"})
W_VEC = json.dumps([[[1, 0], "1"]])


def scalar_argv(tmp_path, where, value):
    """A command that reads ``value`` as one scalar at ``where``: JSON, or
    the text of a flag."""
    if where == "xi-flag":
        return ["simplicity", "--xi", value, "--tau", "2"]
    if where == "poly-flag":
        return ["verify", "restriction", "--poly", f"(t-{value})", "--mu", "1"]
    if where == "vector-coefficient":
        return ["act", "--module", W_SPEC, "--elt", "f", "--vec", json.dumps([[[1, 0], value]])]
    if where == "module-parameter":
        return ["act", "--module", json.dumps({"family": "W", "eta": value}), "--elt", "f",
                "--vec", W_VEC]
    if where == "sl2-coordinate":
        return ["act", "--module", W_SPEC, "--elt", json.dumps({"e": value}), "--vec", W_VEC]
    assert where == "config-param"
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"suites": [
        {"name": "simplicity", "params": {"xi": value, "tau": "2"}}]}))
    return ["report", "--config", str(path)]


@pytest.mark.parametrize("where, coeff, reason", [
    pytest.param(where, coeff, reason, id=f"{where}-{name}".removeprefix("vector-coefficient-"))
    for where in ("vector-coefficient", "sl2-coordinate", "config-param")
    for name, coeff, reason in [
        ("coerced-entries", [1.5, 1, True, 1], "four integers expected"),
        ("zero-denominator", ["1", "0", "0", "1"], "zero denominator")]
] + [
    pytest.param(where, coeff, "zero denominator", id=f"{where}-{name}")
    for where in ("vector-coefficient", "module-parameter", "sl2-coordinate", "config-param",
                  "xi-flag", "poly-flag")
    for name, coeff in [("text-zero-denominator", "1/0"),
                        ("text-zero-imaginary-denominator", "1+1/0*i")]
])
def test_list_scalars_are_integers_over_nonzero_denominators(tmp_path, capsys, where, coeff,
                                                             reason):
    # [re_num, re_den, im_num, im_den]: no truncation of 1.5, no true as 1,
    # and a zero denominator is invalid input, not a ZeroDivisionError, in
    # the text form a/b+c/d*i too, where it was a traceback with exit 1
    code, out, err = run(capsys, *scalar_argv(tmp_path, where, coeff))
    assert code == 2
    assert out == ""
    assert reason in err and "Traceback" not in err


def test_negative_flag_values_follow_an_equals_sign(capsys):
    # argparse reads "-1/2" after a space as an option, so "--xi=-1/2" is the form
    code, out, _ = run(capsys, "simplicity", "--xi=-1/2", "--tau", "2")
    assert code == 0 and json.loads(out)["params"]["xi"] == S("-1/2").to_json()
    code, out, _ = run(capsys, "verify", "restriction", "--poly", "(t-1)^2", "--p=-1,2",
                       "--depth", "4")
    assert code == 0 and json.loads(out)["params"]["polys"] == [[S(-1).to_json(),
                                                                 S(2).to_json()]]
    code, out, err = run(capsys, "simplicity", "--xi", "-1/2", "--tau", "2")
    assert (code, out) == (2, "")
    assert "expected one argument" in err and "Traceback" not in err


@pytest.mark.parametrize("where", ["vector-coefficient", "module-parameter", "sl2-coordinate",
                                   "config-param"])
def test_json_booleans_are_not_scalars(tmp_path, capsys, where):
    # bool is an int in Python, but a JSON true/false is not a number
    code, out, err = run(capsys, *scalar_argv(tmp_path, where, True))
    assert code == 2
    assert out == ""
    assert "Scalar" in err and "Traceback" not in err


def test_misspelt_automorphism_key_exits_two(capsys):
    # "parms" was dropped and the twist acted by sigma
    spec = {"family": "Twist", "inner": {"family": "W", "eta": "1"},
            "aut": {"kind": "sigma", "parms": ["3"]}}
    code, out, err = run(capsys, "act", "--module", json.dumps(spec), "--elt", "e",
                         "--vec", json.dumps([[[0, 0], "1"]]))
    assert (code, out) == (2, "")
    assert "'parms'" in err and "Traceback" not in err


@pytest.mark.parametrize("entry, named", [
    ({"name": "simplicity", "params": {"xi": "0", "tau": "2", "taux": "5"}}, "'taux'"),
    ({"name": "restriction", "params": {"roots": [["1", 1]], "polys": [["1"]], "mu": "1"},
      "depth": 4}, "'mu'"),
    ({"name": "simplicity", "params": ["0", "2"]}, "JSON object"),
    # a missing param used to print only the bare key, as a KeyError
    ({"name": "dense", "params": {"xi": "0"}}, "missing key 'tau' in dense params"),
    ({"name": "simplicity", "params": {}}, "missing key 'xi', 'tau' in simplicity params"),
    ({"name": "twist_induction", "params": {"x": "1,-3,-9"}},
     "missing key 'mu0' in twist_induction params"),
    ({"name": "tensor_vermas", "params": {"lambda1": "1", "lambda2": "2", "mu1": "3"}},
     "missing key 'mu2' in tensor_vermas params"),
    ({"name": "restriction", "params": {"roots": [["1", 1]]}},
     "missing key 'polys' in restriction params"),
], ids=["extra-flag", "restriction-extra", "list", "missing-dense", "missing-simplicity",
        "missing-twist-induction", "missing-tensor-vermas", "missing-restriction"])
def test_config_params_take_only_the_suites_keys(tmp_path, capsys, entry, named):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"suites": [entry]}))
    code, out, err = run(capsys, "report", "--config", str(path))
    assert (code, out) == (2, "")
    assert named in err and "Traceback" not in err


@pytest.mark.parametrize("x", [[1, 2], [1, 2, 3, 4], 5], ids=["two", "four", "int"])
def test_twist_induction_x_is_three_coordinates(tmp_path, capsys, x):
    # [1, 2] was read as (1, 2, 0) and ran; the others printed a raw TypeError
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"suites": [
        {"name": "twist_induction", "params": {"x": x, "mu0": "5"}, "depth": 3}]}))
    code, out, err = run(capsys, "report", "--config", str(path))
    assert (code, out, err) == (2, "", "error: 'x' of twist_induction params must be a string "
                                       f"or a list of three scalars, got {x!r}\n")


TENSOR_VERMAS = {"family": "Tensor", "left": {"family": "Verma", "delta": "1"},
                 "right": {"family": "Verma", "delta": "2"}}


@pytest.mark.parametrize("module, vec, named", [
    ({"family": "Xbar", "xi": "1", "tau": "2"}, [[["e", 1, 7], "1"]], "['e', 1, 7]"),
    (TENSOR_VERMAS, [[[1, 1, 1], "1"]], "[1, 1, 1]"),
    ({"family": "W", "eta": "1"}, {"terms": [[[0, 1], "1"]], "famliy": "W"}, "'famliy'"),
    ({"family": "W", "eta": "1"},
     {"schema": "modvec/1", "family": "X", "params": {"xi": ["5", "1", "0", "1"]},
      "terms": [[[0, 1], ["1", "1", "0", "1"]]]}, '"family": "X"'),
    ({"family": "W", "eta": "1"},
     {"family": "W", "params": {"eta": ["2", "1", "0", "1"]}, "terms": [[[0, 1], "1"]]},
     '"eta": ["2"'),
], ids=["xbar-key", "tensor-key", "unknown-vec-key", "other-family", "other-params"])
def test_vector_input_is_read_whole(capsys, module, vec, named):
    # each of these used to act on a truncated key or in another module
    code, out, err = run(capsys, "act", "--module", json.dumps(module), "--elt", "e",
                         "--vec", json.dumps(vec))
    assert (code, out) == (2, "")
    assert named in err and "Traceback" not in err


@pytest.mark.parametrize("module, vec, named", [
    ({"family": "W", "eta": "1"}, {"schema": "bogus/9", "terms": [[[0, 0], "1"]]}, "bogus/9"),
    ({"family": "W", "eta": "1"}, {"schema": "modvec/1"}, "missing key 'terms'"),
    ({"family": "Xbar", "xi": "1", "tau": "2"}, [[["e", [1]], "1"]], "bad Xbar key"),
    (TENSOR_VERMAS, [[[1, [1]], "1"]], "bad Verma key"),
    (VIRPOLY, [[5, "1"]], "bad VirPoly key 5"),
    ({"family": "X", "xi": "1"}, [[[0, 0], "1"], [[0, 0], "2"]], "repeated key [0, 0]"),
    ({"family": "X", "xi": "1"}, {"schema": "modvec/1", "terms": [[[1, 0], "1"], [[0, 1], "1"],
                                                                  [[1, 0], "2"]]},
     "repeated key [1, 0]"),
], ids=["other-schema", "no-terms", "xbar-list-inside", "tensor-list-inside", "virpoly-int",
        "repeated-key", "modvec-repeated-key"])
def test_vector_input_is_validated_before_use(capsys, module, vec, named):
    # a foreign schema used to be ignored, a key with a list inside failed as
    # an unhashable dict key, a VirPoly key that is no list as a raw TypeError,
    # and a repeated key silently kept only its last coefficient
    for verb in ("act", "weights"):
        elt = ["--elt", "e"] if verb == "act" else []
        code, out, err = run(capsys, verb, "--module", json.dumps(module), *elt,
                             "--vec", json.dumps(vec))
        assert (code, out) == (2, ""), verb
        assert named in err and "unhashable" not in err and "Traceback" not in err


@pytest.mark.parametrize("verb, elt, vec, got", [
    ("act", "e", "[5]", "got [5]"),
    ("act", '{"terms": [5]}', "[]", "got [5]"),
    ("act", "e", '{"terms": 5}', "got 5"),
    ("act", "e", "[[[0,0]]]", "got [[[0, 0]]]"),
    ("weights", None, "[[[0,0]]]", "got [[[0, 0]]]"),
], ids=["vec-int-pair", "elt-int-pair", "vec-int-terms", "vec-one-entry", "weights"])
def test_malformed_terms_are_named(capsys, verb, elt, vec, got):
    # each used to exit 2 with a raw unpacking message that named no field
    argv = [verb, "--module", json.dumps({"family": "X", "xi": "1"}), "--vec", vec]
    argv += ["--elt", elt] if elt else []
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    what = "a Virasoro element" if elt and "terms" in elt else "a vector"
    assert err == (f"error: 'terms' of {what} must be a list of [key, scalar] pairs, "
                   f"{got}\n")


_ROOTS_SHAPE = "roots must be a list of [lambda, multiplicity] pairs, got "


@pytest.mark.parametrize("params, message", [
    ({"roots": 5, "polys": []}, _ROOTS_SHAPE + "5"),
    ({"roots": [[1]], "polys": [["1"]]}, _ROOTS_SHAPE + "[[1]]"),
    ({"roots": [["2", 1]], "polys": 5}, "polys must be a list of coefficient lists, got 5"),
], ids=["roots-int", "roots-one-entry", "polys-int"])
def test_malformed_character_data_is_named(tmp_path, capsys, params, message):
    # a bare int or a one-entry root used to exit 2 with a raw iteration or
    # unpacking message that named no field
    module = {"family": "VirPoly", **params}
    code, out, err = run(capsys, "act", "--module", json.dumps(module), "--elt", "e",
                         "--vec", '[[[0,0,0],"1"]]')
    assert (code, out, err) == (2, "", f"error: {message}\n")
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"suites": [{"name": "restriction", "params": params}]}))
    code, out, err = run(capsys, "report", "--config", str(path))
    assert (code, out, err) == (2, "", f"error: {message}\n")


W_INNER = {"family": "W", "eta": "1"}


@pytest.mark.parametrize("module, named", [
    ({"family": "Xbar", "xi": "1"}, "missing key 'tau' in a Xbar module spec"),
    ({"family": "Verma"}, "missing key 'delta' in a Verma module spec"),
    ({"family": "Twist", "inner": W_INNER}, "missing key 'aut' in a Twist module spec"),
    ({"family": "Tensor", "left": W_INNER}, "missing key 'right' in a Tensor module spec"),
    ({"family": "VirPoly", "roots": [["2", 1]]}, "missing key 'polys' in a VirPoly module spec"),
    ({"family": "Twist", "inner": W_INNER, "aut": {"params": []}},
     "missing key 'kind' in an automorphism spec"),
    ({"family": "Twist", "inner": W_INNER, "aut": {"kind": "inverse"}},
     "missing key 'of' in a 'inverse' automorphism spec"),
    ({"family": "Twist", "inner": W_INNER, "aut": {"kind": "gamma2"}},
     "missing key 'params' in a 'gamma2' automorphism spec"),
    # a spec that is no object used to print "argument of type 'int' is not iterable"
    ({"family": "Twist", "inner": W_INNER, "aut": 5},
     "an automorphism spec must be a JSON object, got 5"),
    ({"family": "Twist", "inner": W_INNER, "aut": {"kind": "inverse", "of": 5}},
     "the 'of' of an 'inverse' automorphism spec must be a JSON object, got 5"),
], ids=["scalar-family", "verma", "twist", "tensor", "virpoly", "aut-kind", "aut-inverse",
        "aut-params", "aut-int", "aut-of-int"])
def test_missing_spec_keys_are_named(capsys, module, named):
    code, out, err = run(capsys, "act", "--module", json.dumps(module), "--elt", "e",
                         "--vec", "[]")
    assert (code, out) == (2, "")
    assert named in err and "Traceback" not in err


def test_optional_spec_keys_may_be_left_out(capsys):
    # a VirPoly depth defaults to 6; sigma and identity take no params
    for module in ({"family": "VirPoly", "roots": [["2", 1]], "polys": [["1"]]},
                   {"family": "Twist", "inner": W_INNER, "aut": {"kind": "sigma"}}):
        code, _, err = run(capsys, "act", "--module", json.dumps(module), "--elt", "e",
                           "--vec", "[]")
        assert code == 0, err


@pytest.mark.parametrize("module, vec", [
    ({"family": "X", "xi": "5"}, [[[0, 1], "1"]]),
    (TENSOR_VERMAS, [[[1, 1], "1"]]),
    ({"family": "Twist", "inner": {"family": "Xbar", "xi": "1", "tau": "2+i"},
      "aut": {"kind": "gamma", "params": ["3"]}}, [[["f", 2], "1"]]),
])
def test_act_output_reads_back(capsys, module, vec):
    code, out, _ = run(capsys, "act", "--module", json.dumps(module), "--elt", "f",
                       "--vec", json.dumps(vec))
    assert code == 0
    code, again, _ = run(capsys, "act", "--module", json.dumps(module), "--elt", "f",
                         "--vec", out)
    assert code == 0
    code, twice, _ = run(capsys, "act", "--module", json.dumps(module), "--elt", "f",
                         "--vec", json.dumps([[key, c] for key, c in json.loads(out)["terms"]]))
    assert (code, twice) == (0, again)
