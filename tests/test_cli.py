"""The command-line frontend: output and exit codes on edge inputs."""

from pathlib import Path

import pytest

from rowlab import harness
from rowlab.cli import run
from rowlab.harness import GenError

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


def test_verify_refuses_a_pair_no_theorem_covers(capsys):
    code = run(["verify", "--property", "erasure",
                "--translation", "rec-sub-to-rec", "--count", "30"])
    assert code == 1
    assert capsys.readouterr().err.startswith(
        "rowlab: error: no theorem covers erasure on rec-sub-to-rec"
    )


def test_verify_depth_below_one_is_a_user_error(capsys):
    code = run(["verify", "--property", "simulation",
                "--translation", "rec-sub-to-rec", "--count", "3", "--depth", "0"])
    assert code == 1
    assert capsys.readouterr().err.startswith("rowlab: error: depth must be at least 1")


def test_verify_max_size_below_one_is_a_user_error(capsys):
    for prop, tid in (("substitution", "rec-sub-to-rec"), ("simulation", "rec-sub-to-rec")):
        for size in ("0", "-5"):
            code = run(["verify", "--property", prop, "--translation", tid,
                        "--count", "2", "--max-size", size])
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith("rowlab: error: max_size must be at least 1"), err


def test_deep_term_is_a_user_error(tmp_path, capsys):
    src = tmp_path / "plus.row"
    src.write_text(" + ".join(["1"] * 2000), encoding="utf-8")
    for command in ("check", "eval"):
        code = run([command, "--calculus", "lam", str(src)])
        assert code == 1
        assert capsys.readouterr().err == "rowlab: error: term nested too deeply\n"
    # erasing and printing keep explicit stacks: the chain itself comes back
    assert run(["erase", str(src)]) == 0
    assert capsys.readouterr().out == " + ".join(["1"] * 2000) + "\n"


def test_a_defect_is_an_internal_error(monkeypatch, capsys):
    def planted(a, b):
        raise KeyError("planted")

    monkeypatch.setattr(harness, "type_equal", planted)  # inside the check
    code = run(["verify", "--property", "type-preservation",
                "--translation", "rec-sub-to-rec", "--count", "2"])
    assert code == 1
    assert capsys.readouterr().err == "rowlab: internal error: KeyError: 'planted'\n"


def test_usage_errors_keep_their_text(tmp_path, capsys):
    code = run(["check", "--calculus", "no-such", str(CORPUS / "getName_alice.row")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("rowlab: error: unknown calculus 'no-such'; known: ")
    src = tmp_path / "latin1.row"
    src.write_bytes(b'"caf\xe9"')
    assert run(["erase", str(src)]) == 1
    assert capsys.readouterr().err == f"rowlab: error: {src}: not UTF-8 text (byte 4)\n"


def test_a_seed_that_is_not_an_integer_is_a_user_error(monkeypatch, capsys):
    monkeypatch.setenv("ROWLAB_SEED", "abc")
    code = run(["verify", "--property", "simulation",
                "--translation", "rec-sub-to-rec", "--count", "1"])
    assert code == 1
    assert capsys.readouterr().err == (
        "rowlab: error: ROWLAB_SEED must be an integer, not 'abc'\n"
    )


def test_a_literal_too_long_to_convert_is_a_parse_error(tmp_path, capsys):
    src = tmp_path / "long.row"
    src.write_text("1 + " + "7" * 5000, encoding="utf-8")
    assert run(["erase", str(src)]) == 1
    assert capsys.readouterr().err == (
        "rowlab: error: 1:5: integer literal of 5000 digits is too long\n"
    )


def test_verify_offers_each_property_once():
    from rowlab.cli import PROPERTIES

    assert sorted(PROPERTIES) == [
        "erasure",
        "preorder-correspondence",
        "reflection",
        "simulation",
        "subject-reduction",
        "substitution",
        "type-preservation",
    ]


def test_verify_refuses_options_no_requested_property_uses(capsys):
    for argv, option in (
        (["--property", "simulation", "--translation", "rec-sub-to-rec",
          "--calculus", "var-sub"], "--calculus"),
        (["--property", "preorder-correspondence", "--calculus", "rec-sub"],
         "--calculus"),
        (["--property", "subject-reduction", "--calculus", "rec-sub",
          "--translation", "rec-sub-to-rec"], "--translation"),
    ):
        code = run(["verify", *argv, "--count", "2"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"rowlab: error: {option} is used by none of"), err
    # each option is used when some requested property takes it
    code = run(["verify", "--property", "simulation",
                "--property", "subject-reduction", "--translation", "rec-sub-to-rec",
                "--calculus", "rec-sub", "--count", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "simulation[rec-sub-to-rec]" in out and "subject-reduction[rec-sub]" in out


def test_eval_negative_fuel_is_a_user_error(tmp_path, capsys):
    code = run(["eval", "--calculus", "rec-sub", "--fuel", "-5",
                str(CORPUS / "getName_alice.row")])
    assert code == 1
    assert capsys.readouterr().err.startswith("rowlab: error: fuel must be at least 0")
    # no fuel still returns a term that is already normal
    src = tmp_path / "one.row"
    src.write_text("1", encoding="utf-8")
    assert run(["eval", "--calculus", "lam", "--fuel", "0", str(src)]) == 0
    assert capsys.readouterr().out.strip() == "1"


def _no_term(self, goal, size, gamma):
    raise GenError("no production inhabits Int")


@pytest.mark.parametrize("owner, name, value", [
    (harness, "_GEN_CALLS_PER_NODE", 0),  # every attempt overruns its bound
    (harness._Gen, "term_for", _no_term),  # every attempt finds no term
])
def test_verify_without_a_generated_term_is_a_user_error(
    monkeypatch, capsys, owner, name, value
):
    monkeypatch.setattr(owner, name, value)
    code = run(["verify", "--property", "subject-reduction", "--calculus", "rec-sub",
                "--count", "2"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("rowlab: error: generation budget exhausted: ")
    assert "Traceback" not in err
