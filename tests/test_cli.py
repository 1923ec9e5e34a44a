import argparse
import io
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import scoresys
from scoresys.cli import build_parser, main
from scoresys.data import load_csv
from scoresys.exactnum import fraction_str
from scoresys.mipmodel import complete_assignment, parse_lp
from scoresys.objective import default_weights
from scoresys.report import ScoringSystem

from helpers import DATA, first_of_signed_rows, write_csv


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


_READERS = ["--data", "--coefset", "report --model", "verify --model", "--solution"]


def _reading_call(tmp_path, csv, coefset, flag):
    """A call that succeeds and reads its input files through the
    reader of flag, and the index in it of the file that reader opens."""
    flags = ["--data", str(csv), "--coefset", str(coefset), "--c0", "0.05"]
    model, lp, sol = tmp_path / "model.json", tmp_path / "model.lp", tmp_path / "sol.txt"
    assert main(["train", *flags, "--out", str(model)]) == 0
    assert main(["export-mip", *flags, "--out", str(lp)]) == 0
    sol.write_text("".join(f"{v.name} {1 if v.name.startswith('z_') else 0}\n"
                           for v in parse_lp(lp.read_text()).variables))
    verify = ["verify", "--model", str(lp), "--solution", str(sol), *flags]
    argv = {"--data": ["train", *flags], "--coefset": ["train", *flags],
            "report --model": ["report", "--model", str(model)],
            "verify --model": verify, "--solution": verify}[flag]
    return argv, argv.index(flag.split()[-1]) + 1


@pytest.mark.parametrize("flag", _READERS)
def test_a_file_that_is_not_utf8_is_exit_1(tmp_path, small_csv, coefset_one, flag, capsys):
    # the start of an executable: 0x80 after an ELF header is no UTF-8
    binary = tmp_path / "binary"
    binary.write_bytes(b"\x7fELF\x02\x01\x01\x00" + bytes(range(128, 256)))
    argv, i = _reading_call(tmp_path, small_csv, coefset_one, flag)
    assert main(argv) == 0
    capsys.readouterr()
    argv[i] = str(binary)
    rc = main(argv)
    assert rc == 1
    assert capsys.readouterr().err == (f"error: cannot read {binary}: not UTF-8 "
                                       "text (invalid start byte)\n")


@pytest.mark.parametrize("flag", _READERS)
def test_a_file_with_a_byte_order_mark_reads_as_without(tmp_path, small_csv, coefset_one,
                                                        flag, capsys):
    # Excel's "CSV UTF-8" starts the file with the UTF-8 byte-order mark
    argv, i = _reading_call(tmp_path, small_csv, coefset_one, flag)
    capsys.readouterr()
    assert main(argv) == 0
    plain = capsys.readouterr()
    marked = tmp_path / ("bom-" + Path(argv[i]).name)
    marked.write_bytes(b"\xef\xbb\xbf" + Path(argv[i]).read_bytes())
    argv[i] = str(marked)
    assert main(argv) == 0
    assert capsys.readouterr() == plain


def test_one_hot_names_may_carry_spaces(tmp_path, capsys):
    rows = [(c, s, 1 if (c == "red") != (s == "big") else -1)
            for c in ("red", "blue") for s in ("big", "small")]
    data = write_csv(tmp_path / "oh.csv", ("color", "size", "y"), rows)
    cs = tmp_path / "c.json"
    cs.write_text(json.dumps({"default": {"type": "integer", "max": 2}}))
    outs = []
    for names in ("color,size", "color, size", " color ,size,"):
        assert main(["export-mip", "--data", str(data), "--one-hot", names, "--coefset",
                     str(cs), "--c0", "0.05", "--out", str(tmp_path / "m.lp")]) == 0
        outs.append((capsys.readouterr(), (tmp_path / "m.lp").read_text()))
    assert outs[1] == outs[0] == outs[2]
    # the intercept and one indicator per level of each column
    assert "Generals\n lam_0 lam_1 lam_2 lam_3 lam_4\n" in outs[0][1]


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
    (["train", "--c0", "0_5"], None),
    (["train", "--c0", "0.1"], {"type": "set", "values": [0, "1_0"]}),
    (["train", "--c0", "1e-10000000"], None),
    (["cv", "--c0-grid", "0.1,0.2,0.1"], None),
    (["train", "--c0", "0.1"], {"type": "integer", "max": 1, "tiers": [
        {"cost": [1], "values": [0]}, {"cost": 1, "values": [1, -1]}]}),
], ids=["c0", "c0_inf", "weights", "c0_grid", "set_values", "integer_max",
        "c0_underscore", "set_values_underscore", "c0_exponent", "c0_grid_repeat",
        "tier_cost"])
def test_malformed_number_is_exit_1(tmp_path, footnote_csv, coefset_one,
                                    capsys, flags, coefset):
    if coefset is not None:
        coefset_one.write_text(json.dumps({"default": coefset}))
    rc = main(flags[:1] + ["--data", str(footnote_csv), "--coefset",
                           str(coefset_one)] + flags[1:])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_unknown_flag_is_exit_2(footnote_csv, coefset_one, capsys):
    rc = main(["train", "--data", str(footnote_csv), "--coefset",
               str(coefset_one), "--c0", "0.1", "--turbo"])
    assert rc == 2


def test_unknown_command_is_exit_2(capsys):
    assert main(["explode"]) == 2
    assert main([]) == 2


def test_budget_flag_ends_the_solve(tmp_path, capsys, monkeypatch):
    # the full solve takes minutes; no environment variable moves --budget
    rng = np.random.default_rng(1)
    rows = [(int(rng.integers(-9, 10)), int(rng.integers(-9, 10)),
             int(rng.integers(-9, 10)), int(rng.integers(-9, 10)),
             1 if rng.random() < 0.5 else -1) for _ in range(150)]
    big = write_csv(tmp_path / "big.csv", ("a", "b", "c", "d", "y"), rows)
    wide = tmp_path / "lam50.json"
    wide.write_text(json.dumps({"default": {"type": "integer", "max": 50}}))
    argv = ["train", "--data", str(big), "--coefset", str(wide), "--c0", "0.001",
            "--budget", "0.2"]
    for env in (None, "not-a-number"):
        if env is not None:
            monkeypatch.setenv("SLIM_BUDGET_S", env)
        assert main(argv) == 0  # budget exhaustion is a success
        assert "status: feasible_budget_exhausted" in capsys.readouterr().out


# every option string of each subcommand but -h/--help
_SURFACE = {
    "train": "--data --label --no-intercept --missing --one-hot --coefset --c0 --c1 "
             "--weights --budget --gap-tol --jobs --out --trace --labels",
    "cv": "--data --label --no-intercept --missing --one-hot --coefset --c1 --weights "
          "--budget --gap-tol --c0-grid --k --jobs --seed --out-csv --out-json",
    "export-mip": "--data --label --no-intercept --missing --one-hot --coefset --c0 "
                  "--c1 --weights --gamma --out",
    "bound": "--theorem --lambda --p --n --delta",
    "report": "--model --labels --decision-table --data --label --no-intercept "
              "--missing --one-hot",
    "verify": "--model --solution --data --label --no-intercept --missing --one-hot "
              "--coefset --c0 --c1 --weights",
}


def test_each_command_takes_exactly_its_flags():
    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == set(_SURFACE)
    for command, flags in _SURFACE.items():
        got = [o for a in sub.choices[command]._actions for o in a.option_strings]
        assert sorted(got) == sorted(flags.split() + ["-h", "--help"]), command


def _subparsers(ap):
    (sub,) = [a for a in ap._actions if isinstance(a, argparse._SubParsersAction)]
    return sub


def _described(parser):
    """What a parser declares: each action's flags and settings, its
    defaults, and its help text."""
    fields = ("option_strings", "dest", "default", "choices", "help", "required",
              "type", "nargs", "const", "metavar")
    return ([tuple(getattr(a, f) for f in fields) for a in parser._actions],
            parser._defaults, parser.format_help())


@pytest.mark.parametrize("command", sorted(_SURFACE))
def test_one_command_parser_declares_what_the_full_parser_does(command, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    full = _subparsers(build_parser())
    one = _subparsers(build_parser(command))
    assert list(one.choices) == [command]
    assert _described(one.choices[command]) == _described(full.choices[command])
    assert [a.help for a in one._choices_actions] == [
        a.help for a in full._choices_actions if a.dest == command]
    assert build_parser(command).format_usage() == build_parser().format_usage()


def test_a_call_builds_only_its_own_command(small_csv, coefset_one, monkeypatch, capsys):
    from scoresys import cli
    built = []

    def recording(command=None):
        built.append(cli_build(command))
        return built[-1]

    cli_build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", recording)
    assert main(["bound", "--theorem", "1", "--lambda", "1", "--p", "2", "--n", "100",
                 "--delta", "0.05"]) == 0
    assert main(["train", "--data", str(small_csv), "--coefset", str(coefset_one),
                 "--c0", "0.05"]) == 0
    assert main(["nope"]) == 2
    assert [list(_subparsers(ap).choices) for ap in built] == [
        ["bound"], ["train"], list(_SURFACE)]


_USAGE = "usage: scoresys [-h] {train,cv,export-mip,bound,report,verify} ...\n"


@pytest.mark.parametrize("argv, code, out, err", [
    ([], 2, "", _USAGE + "scoresys: error: the following arguments are required: "
                        "command\n"),
    (["nope"], 2, "", _USAGE + "scoresys: error: argument command: invalid choice: "
                              "'nope' (choose from 'train', 'cv', 'export-mip', "
                              "'bound', 'report', 'verify')\n"),
    (["bound", "--theorem", "1", "--lambda", "1", "--p", "2", "--n", "9",
      "--delta", "0.1", "--bogus"], 2, "",
     _USAGE + "scoresys: error: unrecognized arguments: --bogus\n"),
    (["--help"], 0, _USAGE + """
Exact training and reporting of sparse integer scoring systems

positional arguments:
  {train,cv,export-mip,bound,report,verify}
    train               solve one training problem
    cv                  cross-validate over a c0 grid
    export-mip          write the training MIP as an LP file
    bound               finite-class generalization bound
    report              render a trained model
    verify              check an external MIP solution

options:
  -h, --help            show this help message and exit
""", ""),
], ids=["none", "unknown", "unrecognized", "help"])
def test_top_level_texts(argv, code, out, err, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert main(argv) == code
    assert capsys.readouterr() == (out, err)


def test_command_help_is_that_commands_help(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert main(["train", "--help"]) == 0
    out = capsys.readouterr().out
    assert out == _subparsers(build_parser()).choices["train"].format_help()
    assert out.startswith("usage: scoresys train [-h] --data DATA")


@pytest.mark.parametrize("argv", [
    ["cv", "--c0", "0.05"],
    ["cv", "--c0-g", "0.05"],
    ["train", "--c0", "0.05", "--gamma", "0.5"],
    ["verify", "--model", "m.lp", "--solution", "s.txt", "--c0", "0.05", "--gamma", "0.5"],
    ["train", "--c0", "0.05", "--bud", "1"],
    ["export-mip", "--c0", "0.05", "--out", "m.lp", "--gam", "0.5"],
    ["export-mip", "--c0", "0.05", "--out", "m.lp", "--variant", "standard"],
], ids=["cv_c0", "cv_c0_prefix", "train_gamma", "verify_gamma", "train_bud",
        "export_mip_gam", "export_mip_variant"])
def test_a_removed_or_abbreviated_flag_is_exit_2(small_csv, coefset_one, argv, capsys):
    # without allow_abbrev=False, cv --c0 0.05 would run as --c0-grid 0.05
    files = ["--data", str(small_csv), "--coefset", str(coefset_one)]
    assert main(argv[:1] + files + argv[1:]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Command line\n", 1)[1].split("```sh\n", 1)[1]
    lines = block.split("```", 1)[0].replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in lines if line.startswith("scoresys ")]
    assert len(commands) == 7
    ap = build_parser()
    for argv in commands:
        try:
            ap.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {shlex.join(argv)}")


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


def test_verify_refuses_a_solution_naming_an_undeclared_variable(tmp_path, small_csv,
                                                                 coefset_one, capsys):
    # examples 4 and 10 of small.csv share a signed row, so the LP has
    # z_4 and no z_10; a solution written per example names z_10 too
    lp, sol = tmp_path / "model.lp", tmp_path / "sol.txt"
    flags = ["--data", str(small_csv), "--coefset", str(coefset_one), "--c0", "0.05"]
    assert main(["export-mip", *flags, "--out", str(lp)]) == 0
    m = parse_lp(lp.read_text())
    names = {v.name for v in m.variables}
    assert "z_4" in names and "z_10" not in names
    a = complete_assignment(m, load_csv(small_csv), [0] * 3)
    per_example = {f"z_{i}": a.get(f"z_{i}", a["z_4"]) for i in range(20)}
    per_example.update(a)
    sol.write_text("".join(f"{k} {fraction_str(v)}\n" for k, v in per_example.items()))
    capsys.readouterr()
    assert main(["verify", "--model", str(lp), "--solution", str(sol), *flags]) == 1
    assert capsys.readouterr().err == ("error: solution names z_10, which the model "
                                       "does not declare\n")
    sol.write_text("".join(f"{k} {fraction_str(v)}\n" for k, v in a.items()))
    assert main(["verify", "--model", str(lp), "--solution", str(sol), *flags]) == 0


def test_export_mip_and_verify_take_no_solve_flags(tmp_path, small_csv,
                                                   coefset_one, capsys):
    # neither command solves, so neither takes a budget or a gap tolerance
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


@pytest.mark.parametrize("extra, gamma", [([], Fraction(1, 10)),
                                          (["--gamma", "0.5"], Fraction(1, 2))])
def test_export_mip_gamma_is_the_loss_rows_right_hand_side(tmp_path, small_csv,
                                                           coefset_one, extra, gamma):
    lp = tmp_path / "model.lp"
    assert main(["export-mip", "--data", str(small_csv), "--coefset", str(coefset_one),
                 "--c0", "0.05", "--out", str(lp), *extra]) == 0
    rhs = [c.rhs for c in parse_lp(lp.read_text()).linear_constraints
           if c.name.startswith("loss_")]
    # one loss row per distinct signed row: (-2, 2, -1) repeats
    assert len(set(first_of_signed_rows(load_csv(small_csv)))) == 19
    assert rhs == [gamma] * 19


def test_export_mip_takes_auto_weights(tmp_path, small_csv, coefset_one, capsys):
    """Class weights change the z weights alone: the loss rows keep their
    loss_i names, and the z weights sum to the loss of the all-miss
    model, (w_pos n_pos + w_neg n_neg)/n, each within the rounding of a
    weight with no terminating decimal (w_neg/n = 1/24 here)."""
    lp = tmp_path / "m.lp"
    rc = main(["export-mip", "--data", str(small_csv), "--coefset",
               str(coefset_one), "--c0", "0.05", "--weights", "auto", "--out", str(lp)])
    assert rc == 0
    d = load_csv(small_csv)
    m = parse_lp(lp.read_text())
    assert capsys.readouterr().out == (f"wrote {lp}: {len(m.variables)} variables, "
                                       f"{len(m.linear_constraints)} constraints\n")
    firsts = sorted(set(first_of_signed_rows(d)))
    assert [c.name for c in m.linear_constraints if c.name.startswith("loss")] == \
        [f"loss_{i}" for i in firsts]
    w_pos, w_neg = default_weights(d.n, d.n_pos)
    want = (w_pos * d.n_pos + w_neg * (d.n - d.n_pos)) / d.n
    got = sum(w for name, w in m.objective if name.startswith("z_"))
    assert abs(got - want) <= len(firsts) * Fraction(1, 10**15)


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


@pytest.mark.parametrize("theorem", ["1", "2"])
@pytest.mark.parametrize("flag, value", [("--lambda", "0"), ("--lambda", "-1"),
                                         ("--p", "0"), ("--p", "-3")])
def test_bound_refuses_a_lambda_or_p_below_1(theorem, flag, value, capsys):
    args = {"--lambda": "2", "--p": "2", flag: value}
    rc = main(["bound", "--theorem", theorem, *(x for kv in args.items() for x in kv),
               "--n", "100", "--delta", "0.05"])
    assert rc == 1
    assert capsys.readouterr() == ("", f"error: {flag} must be >= 1, got {value}\n")


@pytest.mark.parametrize("theorem, p, printed", [
    ("1", "3252", True), ("1", "3253", False), ("1", "1000000", False),
    ("2", "1000000", False)])
def test_bound_refuses_a_count_too_large_to_print(theorem, p, printed, capsys):
    """21^3252 has 4300 digits, the most str() writes by default;
    21^3253 has 4302."""
    rc = main(["bound", "--theorem", theorem, "--lambda", "10", "--p", p,
               "--n", "100", "--delta", "0.05"])
    out, err = capsys.readouterr()
    if printed:
        assert rc == 0 and f"hypothesis_count: {21 ** int(p)}\n" in out
    else:
        assert rc == 1 and out == ""
        assert err == (f"error: the hypothesis count for --lambda 10 --p {p} "
                       f"has too many digits to print\n")


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


def test_report_decision_table_leaves_numpy_ma_unloaded(tmp_path, capsys):
    """report --decision-table in a fresh interpreter exits 0 without
    importing numpy.ma, which numpy's first np.unique call would load."""
    data = str(DATA / "mammo.csv")
    cs = tmp_path / "c.json"
    cs.write_text(json.dumps({"default": {"type": "integer", "max": 1}}))
    model = tmp_path / "m.json"
    assert main(["train", "--data", data, "--coefset", str(cs), "--c0", "0.05",
                 "--out", str(model)]) == 0
    capsys.readouterr()
    code = ("import sys\n"
            "from scoresys.cli import main\n"
            "rc = main(sys.argv[1:])\n"
            "print('numpy.ma' in sys.modules)\n"
            "sys.exit(rc)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(scoresys.__file__)))
    out = subprocess.run([sys.executable, "-c", code, "report", "--model", str(model),
                          "--decision-table", "--data", data],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    assert "1. if" in out.stdout
    assert out.stdout.splitlines()[-1] == "False"


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
    assert main(["export-mip", *flags, "--out", str(lp)]) == 0
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


def test_export_mip_writes_a_tiered_set_as_tier_rows(tmp_path, small_csv, capsys):
    """A set with tiers on every coefficient exports the standard rows
    (alpha and beta included) and one tier_j_r row per tier."""
    cs = tmp_path / "tiers.json"
    cs.write_text(json.dumps({"default": {"type": "integer", "max": 1, "tiers": [
        {"cost": 0.01, "values": [0]}, {"cost": 0.03, "values": [-1, 1]}]}}))
    lp = tmp_path / "m.lp"
    assert main(["export-mip", "--data", str(small_csv), "--no-intercept", "--coefset",
                 str(cs), "--c0", "0.001", "--out", str(lp)]) == 0
    assert capsys.readouterr().out.endswith(" constraints\n")
    m = parse_lp(lp.read_text())
    assert sorted(c.name for c in m.linear_constraints if c.name.startswith("tier_")) == \
        ["tier_0_0", "tier_0_1", "tier_1_0", "tier_1_1"]
    assert {"alpha_0", "alpha_1", "beta_0", "beta_1"} <= {v.name for v in m.variables}


def test_export_mip_writes_a_partly_tiered_set(tmp_path, small_csv, capsys):
    """A set with tiers on some coefficients only exports tier rows for
    those, and the completed assignment of train's model verifies to
    train's objective."""
    cs = tmp_path / "tiers.json"
    cs.write_text(json.dumps({"default": {"type": "integer", "max": 1}, "a": {
        "type": "integer", "max": 1, "tiers": [
            {"cost": 0.01, "values": [0]}, {"cost": 0.03, "values": [-1, 1]}]}}))
    lp, model, sol = tmp_path / "m.lp", tmp_path / "model.json", tmp_path / "sol.txt"
    flags = ["--data", str(small_csv), "--no-intercept", "--coefset", str(cs),
             "--c0", "0.001"]
    assert main(["export-mip", *flags, "--out", str(lp)]) == 0
    m = parse_lp(lp.read_text())
    assert sorted(c.name for c in m.linear_constraints if c.name.startswith("tier_")) == \
        ["tier_0_0", "tier_0_1"]
    capsys.readouterr()
    assert main(["train", *flags, "--out", str(model)]) == 0
    trained = next(line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("objective: "))
    lam = ScoringSystem.from_json(model.read_text()).coefficients
    a = complete_assignment(m, load_csv(str(small_csv), add_intercept=False), lam)
    sol.write_text("".join(f"{k} {fraction_str(v)}\n" for k, v in a.items()))
    assert main(["verify", "--model", str(lp), "--solution", str(sol), *flags]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "verification: ok"
    assert out[1] == trained


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
