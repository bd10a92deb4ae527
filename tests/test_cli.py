"""The command-line frontend: output and exit codes on edge inputs."""

from pathlib import Path

from rowlab.cli import run

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def test_eval_normal_form_on_last_fuel_step(capsys):
    code = run(["eval", "--calculus", "rec-sub", "--fuel", "3",
                str(CORPUS / "getName_alice.row")])
    assert code == 0
    assert capsys.readouterr().out.strip() == '"Alice"'


def test_eval_out_of_fuel_is_a_user_error(capsys):
    code = run(["eval", "--calculus", "rec-sub", "--fuel", "2",
                str(CORPUS / "getName_alice.row")])
    assert code == 1
    assert capsys.readouterr().err.startswith("rowlab: error: no normal form within 2 steps")


def test_verify_zero_count_is_a_user_error(capsys):
    code = run(["verify", "--property", "simulation",
                "--translation", "rec-sub-to-rec", "--count", "0"])
    assert code == 1
    assert capsys.readouterr().err.startswith("rowlab: error: count must be at least 1")


def test_deep_term_is_a_user_error(tmp_path, capsys):
    src = tmp_path / "plus.row"
    src.write_text(" + ".join(["1"] * 2000), encoding="utf-8")
    for command in ("check", "eval"):
        code = run([command, "--calculus", "lam", str(src)])
        assert code == 1
        assert capsys.readouterr().err == "rowlab: error: term nested too deeply\n"
