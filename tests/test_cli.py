import io
import json
from fractions import Fraction

import numpy as np
import pytest

from scoresys.cli import main
from scoresys.data import load_csv
from scoresys.exactnum import fraction_str
from scoresys.mipmodel import complete_assignment, parse_lp
from scoresys.report import ScoringSystem

from helpers import write_csv


@pytest.fixture()
def footnote_csv(tmp_path):
    return write_csv(tmp_path / "foot.csv", ("f0", "f1", "y"),
                     [(-1, 1, 1), (1, -1, -1)])


@pytest.fixture()
def coefset_one(tmp_path):
    p = tmp_path / "lam1.json"
    p.write_text(json.dumps({"default": {"type": "integer", "max": 1}}))
    return p


@pytest.fixture()
def small_csv(tmp_path):
    rng = np.random.default_rng(0)
    rows = []
    for i in range(20):
        a = int(rng.integers(-3, 4))
        b = int(rng.integers(-3, 4))
        rows.append((a, b, 1 if a + b > 0 else -1))
    return write_csv(tmp_path / "small.csv", ("a", "b", "y"), rows)


def test_train_footnote_tiebreak(tmp_path, footnote_csv, coefset_one, capsys):
    out = tmp_path / "model.json"
    rc = main(["train", "--data", str(footnote_csv), "--coefset",
               str(coefset_one), "--no-intercept", "--c0", "0.1",
               "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "status: optimal" in captured.out
    m = ScoringSystem.from_json(out.read_text())
    assert m.coefficients == (Fraction(-1), Fraction(0))


def test_train_model_file_is_to_json(tmp_path, small_csv, coefset_one):
    out = tmp_path / "model.json"
    assert main(["train", "--data", str(small_csv), "--coefset",
                 str(coefset_one), "--c0", "0.05", "--out", str(out)]) == 0
    m = ScoringSystem.from_json(out.read_text())
    hand_rolled = io.StringIO()
    json.dump(m.to_json_dict(), hand_rolled, sort_keys=True, indent=2)
    hand_rolled.write("\n")
    assert out.read_bytes() == m.to_json().encode()
    assert hand_rolled.getvalue() == m.to_json()


def test_train_takes_no_seed(small_csv, coefset_one, capsys):
    # a train solve uses no randomness, so it has no --seed to echo
    argv = ["train", "--data", str(small_csv), "--coefset", str(coefset_one),
            "--c0", "0.05"]
    assert main(argv + ["--seed", "1"]) == 2
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("status: ")


def test_train_trace_and_labels(tmp_path, footnote_csv, coefset_one, capsys):
    trace = tmp_path / "trace.csv"
    rc = main(["train", "--data", str(footnote_csv), "--coefset",
               str(coefset_one), "--no-intercept", "--c0", "0.1",
               "--trace", str(trace), "--labels", "sick,healthy"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "predict sick if Total > 0, else healthy" in out
    lines = trace.read_text().strip().split("\n")
    assert lines[0] == "elapsed_s,incumbent,lower_bound,nnz"
    assert len(lines) >= 2


def test_train_missing_data_file(tmp_path, coefset_one, capsys):
    rc = main(["train", "--data", str(tmp_path / "nope.csv"),
               "--coefset", str(coefset_one), "--c0", "0.1"])
    assert rc == 1
    assert "missing file" in capsys.readouterr().err


def test_train_malformed_coefset_file_is_exit_1(tmp_path, footnote_csv, capsys):
    bad = tmp_path / "notjson.json"
    bad.write_text("notjson")
    rc = main(["train", "--data", str(footnote_csv), "--coefset", str(bad), "--c0", "0.1"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error: coefficient-set file {bad}: malformed JSON: ")
    assert "Traceback" not in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("text", [
    '{"a":', "f0,f1,y\n-1,1,1\n", "[1]",
    '{"features": [{"name": "a", "coef": 1}], "meta": {"feature_ranges": [[1]]}}',
    '{"features": [{"name": "a", "coef": 1}], "intercept": 2, "meta": {"intercept_index": "x"}}',
])
def test_report_malformed_model_file_is_exit_1(tmp_path, text, capsys):
    bad = tmp_path / "model.json"
    bad.write_text(text)
    rc = main(["report", "--model", str(bad)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error: model file {bad}: malformed model JSON: ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("flag", ["--model", "--out"])
def test_a_directory_for_a_file_is_exit_1(tmp_path, footnote_csv, coefset_one, flag, capsys):
    argv = {"--model": ["report", "--model", str(tmp_path)],
            "--out": ["train", "--data", str(footnote_csv), "--coefset",
                      str(coefset_one), "--c0", "0.1", "--out", str(tmp_path)]}[flag]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 1
    assert err == f"error: cannot open {tmp_path}: Is a directory\n"


def test_train_bad_config_is_exit_1(footnote_csv, coefset_one, capsys):
    rc = main(["train", "--data", str(footnote_csv), "--coefset",
               str(coefset_one), "--c0", "-1"])
    assert rc == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("flags, coefset", [
    (["train", "--c0", "abc"], None),
    (["train", "--c0", "inf"], None),
    (["train", "--c0", "0.1", "--weights", "1,x"], None),
    (["cv", "--c0-grid", "0.1,,0.2"], None),
    (["train", "--c0", "0.1"], {"type": "set", "values": [0, "x"]}),
    (["train", "--c0", "0.1"], {"type": "integer", "max": "abc"}),
], ids=["c0", "c0_inf", "weights", "c0_grid", "set_values", "integer_max"])
def test_malformed_number_is_exit_1(tmp_path, footnote_csv, coefset_one,
                                    capsys, flags, coefset):
    if coefset is not None:
        coefset_one.write_text(json.dumps({"default": coefset}))
    rc = main(flags[:1] + ["--data", str(footnote_csv), "--coefset",
                           str(coefset_one)] + flags[1:])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_unknown_flag_is_exit_2(footnote_csv, coefset_one, capsys):
    rc = main(["train", "--data", str(footnote_csv), "--coefset",
               str(coefset_one), "--c0", "0.1", "--turbo"])
    assert rc == 2


def test_unknown_command_is_exit_2(capsys):
    assert main(["explode"]) == 2
    assert main([]) == 2


def test_budget_env_overrides_flag(tmp_path, small_csv, coefset_one,
                                   capsys, monkeypatch):
    rng = np.random.default_rng(1)
    rows = [(int(rng.integers(-9, 10)), int(rng.integers(-9, 10)),
             int(rng.integers(-9, 10)), int(rng.integers(-9, 10)),
             1 if rng.random() < 0.5 else -1) for _ in range(150)]
    big = write_csv(tmp_path / "big.csv", ("a", "b", "c", "d", "y"), rows)
    wide = tmp_path / "lam50.json"
    wide.write_text(json.dumps({"default": {"type": "integer", "max": 50}}))
    monkeypatch.setenv("SLIM_BUDGET_S", "0.2")
    rc = main(["train", "--data", str(big), "--coefset", str(wide),
               "--c0", "0.001", "--budget", "9999"])
    out = capsys.readouterr().out
    assert rc == 0  # budget exhaustion is a success
    assert "status: feasible_budget_exhausted" in out
    monkeypatch.setenv("SLIM_BUDGET_S", "not-a-number")
    rc = main(["train", "--data", str(big), "--coefset", str(wide),
               "--c0", "0.001"])
    assert rc == 1


def test_cv_subcommand(tmp_path, small_csv, coefset_one, capsys):
    out_csv = tmp_path / "cv.csv"
    out_json = tmp_path / "cv.json"
    rc = main(["cv", "--data", str(small_csv), "--coefset", str(coefset_one),
               "--c0-grid", "0.05,0.25", "--k", "2", "--seed", "3",
               "--out-csv", str(out_csv), "--out-json", str(out_json)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "seed: 3" in out
    assert "selected c0 (min error)" in out
    assert "selected c0 (one SE)" in out
    lines = out_csv.read_text().strip().split("\n")
    assert lines[0] == "c0,fold,train_error,test_error,model_size,solve_status,gap"
    assert len(lines) == 5  # 2 c0 x 2 folds
    doc = json.loads(out_json.read_text())
    assert doc["seed"] == 3


def test_cv_single_class_warning_on_stderr(tmp_path, coefset_one, capsys):
    rows = [(1, 1)] + [(1, -1)] * 9
    csv_p = write_csv(tmp_path / "skew.csv", ("a", "y"), rows)
    rc = main(["cv", "--data", str(csv_p), "--coefset", str(coefset_one),
               "--c0-grid", "0.1", "--k", "2"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "single class" in captured.err


def test_export_mip_and_verify_round_trip(tmp_path, small_csv, coefset_one,
                                          capsys):
    lp = tmp_path / "model.lp"
    rc = main(["export-mip", "--data", str(small_csv), "--coefset",
               str(coefset_one), "--c0", "0.05", "--c1", "0.001",
               "--out", str(lp)])
    assert rc == 0
    m = parse_lp(lp.read_text())
    assert any(v.name == "lam_0" for v in m.variables)

    # feasible zero-model solution accepted
    sol = tmp_path / "sol.txt"
    pairs = {}
    for v in m.variables:
        pairs[v.name] = "1" if v.name.startswith("z_") else "0"
    sol.write_text("".join(f"{k} {v}\n" for k, v in pairs.items()))
    rc = main(["verify", "--model", str(lp), "--solution", str(sol),
               "--data", str(small_csv), "--c0", "0.05", "--c1", "0.001"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "verification: ok" in out

    # lying about one loss indicator is rejected
    pairs["z_0"] = "0"
    sol.write_text("".join(f"{k} {v}\n" for k, v in pairs.items()))
    rc = main(["verify", "--model", str(lp), "--solution", str(sol),
               "--data", str(small_csv), "--c0", "0.05", "--c1", "0.001"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "loss_0" in captured.err


def test_export_mip_and_verify_take_no_solve_flags(tmp_path, small_csv,
                                                   coefset_one, capsys, monkeypatch):
    # neither command solves, so neither reads a budget or a gap tolerance
    monkeypatch.setenv("SLIM_BUDGET_S", "abc")
    lp = tmp_path / "model.lp"
    flags = ["--data", str(small_csv), "--coefset", str(coefset_one), "--c0", "0.05"]
    assert main(["export-mip", *flags, "--out", str(lp)]) == 0
    m = parse_lp(lp.read_text())
    sol = tmp_path / "sol.txt"
    sol.write_text("".join(f"{v.name} {1 if v.name.startswith('z_') else 0}\n"
                           for v in m.variables))
    assert main(["verify", "--model", str(lp), "--solution", str(sol), *flags]) == 0
    assert "verification: ok" in capsys.readouterr().out
    for extra in (["--budget", "1"], ["--gap-tol", "0.1"]):
        assert main(["export-mip", *flags, "--out", str(lp), *extra]) == 2
        assert main(["verify", "--model", str(lp), "--solution", str(sol),
                     *flags, *extra]) == 2


def test_export_mip_standard_rejects_auto_weights(tmp_path, small_csv,
                                                  coefset_one, capsys):
    rc = main(["export-mip", "--data", str(small_csv), "--coefset",
               str(coefset_one), "--c0", "0.05", "--weights", "auto",
               "--out", str(tmp_path / "m.lp")])
    assert rc == 1
    assert "weighted" in capsys.readouterr().err


def test_bound_theorem_1(capsys):
    rc = main(["bound", "--theorem", "1", "--lambda", "1", "--p", "1",
               "--n", "200", "--delta", "0.05"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "finite_class" in out
    assert "hypothesis_count: 3" in out
    assert "0.10466" in out


def test_bound_theorem_2(capsys):
    rc = main(["bound", "--theorem", "2", "--lambda", "5", "--p", "1",
               "--n", "500", "--delta", "0.05"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "coprime_class" in out
    assert "hypothesis_count: 10" in out


def test_report_subcommand(tmp_path, footnote_csv, coefset_one, capsys):
    out = tmp_path / "model.json"
    main(["train", "--data", str(footnote_csv), "--coefset", str(coefset_one),
          "--no-intercept", "--c0", "0.1", "--out", str(out)])
    capsys.readouterr()
    rc = main(["report", "--model", str(out), "--labels", "bad,good"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "Total = ..." in text
    assert "predict bad if Total > 0" in text


def test_report_decision_table(tmp_path, capsys):
    rows = [(a, b, 1 if a - b > 0 else -1)
            for a in (0, 1) for b in (0, 1)]
    data = write_csv(tmp_path / "bin.csv", ("A", "B", "y"), rows)
    cs = tmp_path / "c.json"
    cs.write_text(json.dumps({"default": {"type": "integer", "max": 2}}))
    model = tmp_path / "m.json"
    rc = main(["train", "--data", str(data), "--coefset", str(cs),
               "--c0", "0.05", "--out", str(model)])
    assert rc == 0
    capsys.readouterr()
    rc = main(["report", "--model", str(model), "--decision-table",
               "--data", str(data)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "1. if" in out

    rc = main(["report", "--model", str(model), "--decision-table"])
    assert rc == 1  # table induction needs the data


def test_report_decision_table_reads_a_one_hot_table(tmp_path, capsys):
    colors = ("red", "blue", "green")
    rows = [(c, a, 1 if (c == "red") != (a == 1) else -1)
            for c in colors for a in (0, 1)]
    data = write_csv(tmp_path / "oh.csv", ("color", "A", "y"), rows)
    cs = tmp_path / "c.json"
    cs.write_text(json.dumps({"default": {"type": "integer", "max": 2}}))
    model = tmp_path / "m.json"
    assert main(["train", "--data", str(data), "--one-hot", "color",
                 "--coefset", str(cs), "--c0", "0.05", "--out", str(model)]) == 0
    capsys.readouterr()
    rc = main(["report", "--model", str(model), "--decision-table",
               "--data", str(data), "--one-hot", "color"])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    assert "1. if" in captured.out


def test_verify_rejects_a_tier_model_that_breaks_the_naming_scheme(
        tmp_path, small_csv, capsys):
    """def_I_1 without its s_1_1 term: the tier of coefficient 1 has no
    cost, and verify says so instead of crashing."""
    cs = tmp_path / "tiers.json"
    cs.write_text(json.dumps({"default": {"type": "integer", "max": 2, "tiers": [
        {"cost": 0.01, "values": [0]}, {"cost": 0.03, "values": [-1, 1]},
        {"cost": 0.07, "values": [-2, 2]}]}}))
    lp = tmp_path / "m.lp"
    flags = ["--data", str(small_csv), "--no-intercept", "--coefset", str(cs),
             "--c0", "0.001"]
    assert main(["export-mip", *flags, "--variant", "pilm", "--out", str(lp)]) == 0
    text = lp.read_text()
    assert " - 0.03 s_1_1" in text
    lp.write_text(text.replace(" - 0.03 s_1_1", ""))
    d = load_csv(str(small_csv), add_intercept=False)
    a = complete_assignment(parse_lp(text), d, [Fraction(2), Fraction(0)])
    sol = tmp_path / "sol.txt"
    sol.write_text("".join(f"{k} {fraction_str(v)}\n" for k, v in a.items()))
    capsys.readouterr()
    rc = main(["verify", "--model", str(lp), "--solution", str(sol), *flags])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == "error: tier_1_1: s_1_1 has no cost in def_I_1\n"


def test_export_mip_pilm_rejects_an_untiered_coefficient(tmp_path, small_csv, capsys):
    cs = tmp_path / "tiers.json"
    cs.write_text(json.dumps({"default": {"type": "integer", "max": 1}, "a": {
        "type": "integer", "max": 1, "tiers": [
            {"cost": 0.01, "values": [0]}, {"cost": 0.03, "values": [-1, 1]}]}}))
    rc = main(["export-mip", "--data", str(small_csv), "--no-intercept", "--coefset",
               str(cs), "--c0", "0.001", "--variant", "pilm",
               "--out", str(tmp_path / "m.lp")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == ("error: pilm variant needs tiers for every coefficient; "
                   "coefficient 1 ('b') has none\n")
    assert not (tmp_path / "m.lp").exists()


def test_verify_missing_solution_file(tmp_path, small_csv, coefset_one,
                                      capsys):
    lp = tmp_path / "m.lp"
    main(["export-mip", "--data", str(small_csv), "--coefset",
          str(coefset_one), "--c0", "0.05", "--out", str(lp)])
    capsys.readouterr()
    rc = main(["verify", "--model", str(lp), "--solution",
               str(tmp_path / "nope.txt"), "--data", str(small_csv),
               "--c0", "0.05"])
    assert rc == 1
