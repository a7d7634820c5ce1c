import hashlib
import shlex
from pathlib import Path

import pytest

from primecensus.cli import build_parser, format_percent, main
from primecensus.models import ALL_MODEL_KINDS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_format_percent_half_away_from_zero():
    assert format_percent(0.0059671478726839875) == "0.60%"
    assert format_percent(0.00609425103554892) == "0.61%"
    assert format_percent(0.000534) == "0.05%"
    assert format_percent(1.1687965812040229e-05) == "0.00%"
    assert format_percent(0.999999980244535) == "100.00%"
    assert format_percent(0.12005) == "12.01%"  # exact half rounds away from zero
    assert format_percent(0.0) == "0.00%"
    assert format_percent(float("inf")) == "inf%"
    assert format_percent(float("nan")) == "nan%"
    assert format_percent(1e30) == "1" + "0" * 32 + ".00%"  # past Decimal's default 28 digits


def test_pi_subcommand(capsys):
    code, out, _ = run(capsys, "pi", "100")
    assert code == 0
    assert out.strip() == "25"


def test_unknown_flag_exits_1(capsys):
    with pytest.raises(SystemExit) as info:
        main(["pi", "--bogus"])
    assert info.value.code == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_model_exits_1(tmp_path, capsys):
    code, _, err = run(capsys, "census", "--max-x", "30", "--out", str(tmp_path / "c.csv"))
    assert code == 0
    code, _, err = run(capsys, "evaluate", "--census", str(tmp_path / "c.csv"), "--models", "nope")
    assert code == 1
    assert "unknown model" in err


def test_missing_census_file_exits_2(capsys):
    code, _, err = run(capsys, "evaluate", "--census", "does-not-exist.csv")
    assert code == 2


def test_census_row_for_x_10(tmp_path, capsys):
    out = tmp_path / "t.csv"
    code, _, _ = run(capsys, "census", "--max-x", "22", "--out", str(out))
    assert code == 0
    assert "10,100,21\n" in out.read_text()


def test_census_to_stdout(capsys):
    code, out, _ = run(capsys, "census", "--max-x", "5")
    assert code == 0
    assert out.splitlines() == ["x,x_squared,prime_count", "2,4,2", "3,9,3", "4,16,4", "5,25,7"]
    code, out, _ = run(capsys, "census", "--max-x", "9", "--stop-after", "4")
    assert out.splitlines()[-1] == "4,16,4"


@pytest.mark.parametrize("max_x", ["100000000", "1"])
def test_refused_census_range_leaves_no_file(tmp_path, capsys, max_x):
    out = tmp_path / "refused.csv"
    code, _, err = run(capsys, "census", "--max-x", max_x, "--out", str(out))
    assert code == 1 and "error" in err
    assert not out.exists()


def test_census_workers_env_default(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PRIMECENSUS_WORKERS", "2")
    parser = build_parser()
    args = parser.parse_args(["census", "--max-x", "10"])
    assert args.workers == 2


@pytest.mark.parametrize("flag", ["0", "-2", "two"])
def test_census_refuses_bad_workers_flag(tmp_path, capsys, flag):
    out = tmp_path / "c.csv"
    with pytest.raises(SystemExit) as info:
        main(["census", "--max-x", "50", "--out", str(out), "--workers", flag])
    assert info.value.code == 1
    assert "--workers" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-3", "abc", "1.5"])
def test_census_refuses_bad_workers_env(tmp_path, capsys, monkeypatch, value):
    monkeypatch.setenv("PRIMECENSUS_WORKERS", value)
    out = tmp_path / "c.csv"
    with pytest.raises(SystemExit) as info:
        main(["census", "--max-x", "50", "--out", str(out)])
    assert info.value.code == 1
    assert "PRIMECENSUS_WORKERS" in capsys.readouterr().err
    assert not out.exists()
    # The flag wins over the variable, and other commands never read it.
    assert run(capsys, "census", "--max-x", "50", "--out", str(out), "--workers", "1")[0] == 0
    assert run(capsys, "pi", "100")[:2] == (0, "25\n")


def test_help_survives_bad_workers_env(capsys, monkeypatch):
    monkeypatch.setenv("PRIMECENSUS_WORKERS", "-3")
    for argv in (["--help"], ["census", "--help"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 0
        assert "usage:" in capsys.readouterr().out


def test_verify_ok_and_corrupted(tmp_path, capsys):
    out = tmp_path / "t.csv"
    run(capsys, "census", "--max-x", "22", "--out", str(out))
    code, stdout, _ = run(capsys, "verify", "--census", str(out), "--sample", "5", "--seed", "1")
    assert code == 0
    ok_lines = [l for l in stdout.splitlines() if l.startswith("OK ")]
    assert len(ok_lines) == 5

    bad = tmp_path / "bad.csv"
    bad.write_text(out.read_text().replace("10,100,21", "10,100,22"))
    code, stdout, _ = run(capsys, "verify", "--census", str(bad), "--sample", "21", "--seed", "1")
    assert code == 1
    assert "MISMATCH x=10" in stdout


def test_verify_seed_determinism(tmp_path, capsys):
    out = tmp_path / "t.csv"
    run(capsys, "census", "--max-x", "60", "--out", str(out))
    _, first, _ = run(capsys, "verify", "--census", str(out), "--sample", "7", "--seed", "42")
    _, second, _ = run(capsys, "verify", "--census", str(out), "--sample", "7", "--seed", "42")
    assert first == second


def test_verify_refuses_empty_census(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("x,x_squared,prime_count\n")
    code, stdout, err = run(capsys, "verify", "--census", str(empty), "--sample", "5")
    assert code == 1
    assert stdout == "" and "census is empty" in err


def test_verify_checks_sample_before_reading_the_census(tmp_path, capsys):
    # A missing file would exit 2 if the census were read first.
    code, _, err = run(capsys, "verify", "--census", str(tmp_path / "missing.csv"), "--sample", "0")
    assert code == 1
    assert "--sample must be >= 1" in err


def test_evaluate_text_and_csv(tmp_path, capsys):
    census = tmp_path / "c.csv"
    run(capsys, "census", "--max-x", "200", "--out", str(census))
    code, out, _ = run(capsys, "evaluate", "--census", str(census), "--models", "all")
    assert code == 0
    assert "Average relative error by model" in out
    assert "custom_ratio" in out and "bertrand" in out
    assert "Constants used:" in out

    rows_csv = tmp_path / "rows.csv"
    code, out, _ = run(
        capsys, "evaluate", "--census", str(census), "--models", "custom_ratio,bertrand",
        "--format", "csv", "--out", str(rows_csv),
    )
    assert code == 0
    header, *lines = out.strip().splitlines()
    assert header == "model,n,average_relative_error,exact,floor,ceil,none"
    assert [l.split(",")[0] for l in lines] == ["custom_ratio", "bertrand"]
    eval_lines = rows_csv.read_text().splitlines()
    assert eval_lines[0] == "x,true_count,model,prediction,relative_error,match_class"
    assert len(eval_lines) == 1 + 2 * 199  # one block per model


def test_evaluate_out_bytes_are_pinned(tmp_path, capsys):
    """The evaluation CSV of the six count models on the 2..10,000 census:
    59,995 lines, each model's 9,999 rows crossing a formatting block edge."""
    census = tmp_path / "c.csv"
    run(capsys, "census", "--max-x", "10000", "--out", str(census))
    rows_csv = tmp_path / "rows.csv"
    code, _, _ = run(
        capsys, "evaluate", "--census", str(census), "--models", "all", "--format", "csv", "--out", str(rows_csv),
    )
    assert code == 0
    digest = hashlib.sha256(rows_csv.read_bytes()).hexdigest()
    assert digest == "583e7f10cd7683d29bfa9e1706a00f1236e9ad79572b262d191261afa9107bb9"


@pytest.mark.filterwarnings("ignore:overflow encountered in power:RuntimeWarning")
def test_evaluate_prints_an_infinite_are(tmp_path, capsys):
    census = tmp_path / "c.csv"
    run(capsys, "census", "--max-x", "300", "--out", str(census))
    code, out, _ = run(capsys, "evaluate", "--census", str(census), "--models", "power_series", "--set", "power_series.b=400")
    assert code == 0
    assert "power_series                           inf%   (unrounded inf, n=299)" in out


def test_evaluate_with_constants_override(tmp_path, capsys):
    census = tmp_path / "c.csv"
    run(capsys, "census", "--max-x", "50", "--out", str(census))
    constants = tmp_path / "constants.txt"
    constants.write_text("hyperbolic.z_slope=1.9029\n")
    code, out, _ = run(
        capsys, "evaluate", "--census", str(census), "--models", "hyperbolic",
        "--constants", str(constants),
    )
    assert code == 0
    assert "hyperbolic.z_slope=1.9029 (override)" in out


def test_evaluate_difference_line_model(tmp_path, capsys):
    census = tmp_path / "c.csv"
    run(capsys, "census", "--max-x", "50", "--out", str(census))
    code, out, _ = run(capsys, "evaluate", "--census", str(census), "--models", "difference_line")
    assert code == 0
    assert "difference series" in out


def test_matches_layout(tmp_path, capsys):
    census = tmp_path / "c.csv"
    run(capsys, "census", "--max-x", "1347", "--out", str(census))
    code, out, _ = run(capsys, "matches", "--census", str(census), "--model", "custom_ratio")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header.split() == ["model", "exact", "ceil", "floor", "none"]
    fields = row.split()
    assert fields[0] == "custom_ratio"
    code, out, _ = run(capsys, "matches", "--census", str(census), "--model", "custom_ratio", "--format", "csv")
    assert out.splitlines()[0] == "model,exact,ceil,floor,none,n"


def test_matches_and_evaluate_agree_on_tallies(tmp_path, capsys):
    census = tmp_path / "c.csv"
    run(capsys, "census", "--max-x", "300", "--out", str(census))
    every = ",".join(ALL_MODEL_KINDS)
    code, out, _ = run(capsys, "evaluate", "--census", str(census), "--models", every, "--format", "csv")
    assert code == 0
    evaluated = {}
    for line in out.splitlines()[1:]:
        kind, n, _, exact, floor, ceil, none = line.split(",")
        evaluated[kind] = (exact, ceil, floor, none, n)
    code, out, _ = run(capsys, "matches", "--census", str(census), "--model", every, "--format", "csv")
    assert code == 0
    matched = {kind: tuple(rest) for kind, *rest in (line.split(",") for line in out.splitlines()[1:])}
    assert list(evaluated) == list(ALL_MODEL_KINDS)
    assert matched == evaluated


def test_fit_subcommand_and_constants_roundtrip(tmp_path, capsys):
    census = tmp_path / "c.csv"
    run(capsys, "census", "--max-x", "400", "--out", str(census))
    constants = tmp_path / "fitted.txt"
    code, out, _ = run(
        capsys, "fit", "--census", str(census), "--target", "ratio",
        "--x-min", "10", "--x-max", "400", "--constants-out", str(constants),
    )
    assert code == 0
    values = dict(l.split("=", 1) for l in out.strip().splitlines())
    assert values["target"] == "ratio"
    assert values["n_points"] == "391"
    assert float(values["x_min"]) == 10 and float(values["x_max"]) == 400
    assert "custom_ratio.k_slope" in values
    # The written file must be consumable by evaluate.
    code, out, _ = run(
        capsys, "evaluate", "--census", str(census), "--models", "custom_ratio",
        "--constants", str(constants),
    )
    assert code == 0
    assert "(override)" in out


@pytest.mark.parametrize("target", ["difference", "power", "hyperbolic"])
def test_fit_targets(tmp_path, capsys, target):
    census = tmp_path / "c.csv"
    run(capsys, "census", "--max-x", "300", "--out", str(census))
    code, out, _ = run(capsys, "fit", "--census", str(census), "--target", target)
    assert code == 0
    values = dict(l.split("=", 1) for l in out.strip().splitlines())
    assert {"slope", "intercept", "r_squared"} <= set(values)


def test_plot_subcommand(tmp_path, capsys):
    census = tmp_path / "c.csv"
    run(capsys, "census", "--max-x", "300", "--out", str(census))
    svg = tmp_path / "out.svg"
    code, _, _ = run(capsys, "plot", "--census", str(census), "--kind", "compare",
                     "--models", "custom_ratio,bertrand", "--out", str(svg))
    assert code == 0
    first = svg.read_bytes()
    assert b"<polyline" in first
    run(capsys, "plot", "--census", str(census), "--kind", "compare",
        "--models", "custom_ratio,bertrand", "--out", str(svg))
    assert svg.read_bytes() == first


def test_census_checkpoint_flow_exit_codes(tmp_path, capsys):
    out = tmp_path / "c.csv"
    ck = tmp_path / "ck"
    code, _, _ = run(capsys, "census", "--max-x", "120", "--out", str(out),
                     "--checkpoint", str(ck), "--stop-after", "60")
    assert code == 0
    text = ck.read_text()
    ck.write_text("\n".join(
        ("digest=" + "0" * 64) if l.startswith("digest=") else l for l in text.splitlines()
    ) + "\n")
    code, _, err = run(capsys, "census", "--out", str(out), "--checkpoint", str(ck), "--resume")
    assert code == 3
    assert "integrity" in err
    code, _, _ = run(capsys, "census", "--max-x", "120", "--out", str(out))
    assert code == 0


def test_census_usage_errors(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main(["census"])  # no --max-x and not resuming
    assert info.value.code == 1
    code, _, err = run(capsys, "census", "--max-x", "50", "--checkpoint", str(tmp_path / "ck"))
    assert code == 1  # checkpoint without --out


def test_set_flag_overrides_constants(tmp_path, capsys):
    census = tmp_path / "c.csv"
    run(capsys, "census", "--max-x", "50", "--out", str(census))
    code, out, _ = run(
        capsys, "evaluate", "--census", str(census), "--models", "hyperbolic",
        "--set", "hyperbolic.z_slope=1.9029",
    )
    assert code == 0
    assert "hyperbolic.z_slope=1.9029 (override)" in out
    code, _, err = run(
        capsys, "evaluate", "--census", str(census), "--models", "hyperbolic",
        "--set", "hyperbolic.z_slope",
    )
    assert code == 1 and "--set" in err
    for bad in ("hyperbolic.z_slope=abc", "nodot=1"):
        code, _, err = run(
            capsys, "evaluate", "--census", str(census), "--models", "hyperbolic", "--set", bad,
        )
        assert code == 1 and "--set" in err, bad


def test_readme_cli_examples_parse():
    """Every command of the README's CLI quick tour parses with today's flags."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## CLI quick tour", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in tour.replace("\\\n", " ").splitlines()]
    commands = [argv for argv in commands if argv and argv[0] == "primecensus"]
    assert len(commands) >= 15
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])
