"""The command-line frontend: output and exit codes on edge inputs."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from rowlab import cli, harness
from rowlab.cli import run
from rowlab.config import preset
from rowlab.harness import GenError
from rowlab.parser import parse_file_str, parse_type_str
from rowlab.pretty import show_term
from rowlab.statics import StaticError, type_check
from rowlab.syntax import type_equal
from rowlab.translate import TRANSLATIONS

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
SRC = Path(__file__).resolve().parent.parent / "src"


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


def test_verify_counts_the_cases_of_every_pair(capsys):
    code = run(["verify", "--property", "type-preservation",
                "--translation", "erase-upcasts", "--count", "4", "--json"])
    assert code == 0
    (report,) = json.loads(capsys.readouterr().out)
    assert (report["cases"], report["passed"]) == (4, True)


def test_translate_stops_at_the_rank_limit(capsys):
    # the checker's gate: a function cast of rank 2 under a rank-1 source
    code = run(["translate", "--from", "rec-sub-full-rank1", "--to", "rec-pre1",
                str(CORPUS / "getName_fullsub.row")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("rowlab: error: type {Name:String; Age:Int} -> String ")
    assert "exceeds the rank limit" in err


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


def test_verify_offers_each_property_once(capsys):
    order = (
        "type-preservation",
        "simulation",
        "reflection",
        "substitution",
        "erasure",
        "preorder-correspondence",
        "subject-reduction",
    )
    with pytest.raises(SystemExit) as done:
        run(["verify", "--help"])
    assert done.value.code == 0
    assert "--property {" + ",".join(order) + "}" in capsys.readouterr().out
    # the CLI offers, without loading the harness, the keys of its tables
    assert cli.PROPERTIES == harness.PROPERTIES == order


@pytest.mark.parametrize("make, reason", [
    (lambda tmp: tmp / "missing.row", "No such file or directory"),
    (lambda tmp: tmp, "Is a directory"),
], ids=["missing", "directory"])
def test_an_unreadable_file_is_a_user_error(tmp_path, capsys, make, reason):
    path = make(tmp_path)
    assert run(["check", "--calculus", "rec-sub", str(path)]) == 1
    assert capsys.readouterr().err == f"rowlab: error: {path}: {reason}\n"


def test_verify_refuses_options_no_requested_property_uses(capsys):
    for argv, option in (
        (["--property", "simulation", "--translation", "rec-sub-to-rec",
          "--calculus", "var-sub"], "--calculus"),
        (["--property", "erasure", "--calculus", "rec-sub"], "--calculus"),
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


@pytest.mark.parametrize(
    "options,message",
    [
        ([], "needs a translation id or a calculus id"),
        (["--translation", "erase-upcasts", "--calculus", "var-rec-sub-full"], "not both"),
        (["--calculus", "rec-row1"], "no theorem covers preorder-correspondence on rec-row1"),
        (["--calculus", "rec-sub"], "no theorem covers preorder-correspondence on rec-sub"),
    ],
)
def test_verify_preorder_refuses_a_missing_double_or_unstructural_subject(
    capsys, options, message
):
    code = run(["verify", "--property", "preorder-correspondence", *options, "--count", "2"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("rowlab: error: ") and message in err, err
    assert "internal error" not in err


def test_verify_preorder_on_a_calculus(capsys):
    argv = ["verify", "--property", "preorder-correspondence", "--calculus",
            "var-rec-sub-full", "--count", "100"]
    assert run(argv) == 0
    assert capsys.readouterr().out == "preorder-correspondence: 681 cases, pass\n"


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


ALICE = '(\\x:{Name:String}. x.Name) ({Name = "Alice", Age = 9} :> {Name:String})'
STEPS = ["beta-lam", "upcast-record", "beta-project"]
# each command's text output, the show_term calls that text needs, and its
# --json output (the payload, in key order)
PRINTED = [
    (["check", "--calculus", "rec-sub", "getName_alice.row"], "String\n", 0,
     {"calculus": "rec-sub", "term": ALICE, "type": "String"}),
    (["infer", "--calculus", "rec-row1", "getName_alice_bare.row"], "String\n", 0,
     {"calculus": "rec-row1", "term": '(\\x. x.Name) {Name = "Alice", Age = 9}',
      "scheme": "String"}),
    (["eval", "--calculus", "rec-sub", "getName_alice.row"], '"Alice"\n', 1,
     {"calculus": "rec-sub", "term": ALICE, "result": '"Alice"', "steps": STEPS}),
    (["eval", "--calculus", "rec-sub", "--trace", "getName_alice.row"],
     "".join(f"  {s}\n" for s in STEPS) + '"Alice"\n', 1,
     {"calculus": "rec-sub", "term": ALICE, "result": '"Alice"', "steps": STEPS}),
    (["erase", "getName_alice.row"], '(\\x. x.Name) {Name = "Alice", Age = 9}\n', 1,
     {"term": ALICE, "erased": '(\\x. x.Name) {Name = "Alice", Age = 9}'}),
    (["translate", "--from", "rec-sub", "--to", "rec-pre", "alice_upcast.row"],
     '/\\p0. (/\\p1. /\\p2. {Name = "Alice", Age = 9} : {Age^p1:Int; Name^p2:String})'
     " @@ o @@ p0\n", 1,
     {"translation": "rec-sub-to-pre", "from": "rec-sub", "to": "rec-pre",
      "term": '/\\p0. (/\\p1. /\\p2. {Name = "Alice", Age = 9} : '
              '{Age^p1:Int; Name^p2:String}) @@ o @@ p0',
      "type": "forall q0:Pre. {Name^q0:String}"}),
    (["translate", "--from", "rec-sub-full-rank2", "--to", "rec-row1", "alice_upcast.row"],
     '{Name = "Alice", Age = 9}\n', 1,
     {"translation": "erase-upcasts", "from": "rec-sub-full-rank2", "to": "rec-row1",
      "term": '{Name = "Alice", Age = 9}'}),
    (["translate", "--from", "var-sub-full-rank2", "--to", "var-pre1", "year.row"],
     "<Year 1984>\n", 1,
     {"translation": "erase-variant-upcasts", "from": "var-sub-full-rank2",
      "to": "var-pre1", "term": "<Year 1984>"}),
]


@pytest.mark.parametrize("argv, text, shown, payload", PRINTED)
def test_commands_render_only_what_they_print(monkeypatch, capsys, argv, text, shown, payload):
    calls = []
    monkeypatch.setattr(cli, "show_term", lambda t: calls.append(t) or show_term(t))
    argv = [*argv[:-1], str(CORPUS / argv[-1])]
    assert run(argv) == 0
    assert capsys.readouterr().out == text
    assert len(calls) == shown  # the input term is not rendered to be dropped
    assert run([*argv, "--json"]) == 0
    assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"


def test_t6_output_with_a_nested_quantifier_checks(tmp_path, capsys):
    # the codomain's quantifier is named apart from the one around it
    src = tmp_path / "nested.row"
    src.write_text("\\f:{A: {B:Int} -> Int}. f\n")
    assert run(["translate", "--from", "rec-sub-co", "--to", "rec-pre", str(src)]) == 0
    out = capsys.readouterr().out
    assert out == (
        "/\\p0. \\f:forall q0:Pre. {A^q0:(forall q1:Pre. {B^q1:Int}) -> Int}. f @ p0\n"
    )
    translated = tmp_path / "translated.row"
    translated.write_text(out)
    assert run(["check", "--calculus", "rec-pre", str(translated)]) == 0


@pytest.mark.parametrize("argv, header, message", [
    (["check", "--calculus", "lam"], "x : {A:Int}",
     "record types not available in this calculus"),
    (["check", "--calculus", "lam"], "x : b", "unbound type variable b"),
    (["translate", "--from", "rec-sub", "--to", "rec"], "x : {A:Int; r}",
     "open rows not available in this calculus"),
    (["check", "--calculus", "lam"], "x : Int\n-- env: x : String",
     "2:9: duplicate env header for x"),
])
def test_a_context_the_calculus_cannot_state_is_a_user_error(
    tmp_path, capsys, argv, header, message
):
    src = tmp_path / "env.row"
    src.write_text(f"-- env: {header}\nx\n")
    assert run([*argv, str(src)]) == 1
    assert capsys.readouterr().err == f"rowlab: error: {message}\n"


@pytest.mark.parametrize("command", ["check", "infer"])
@pytest.mark.parametrize("calculus, header, message", [
    ("var-row1", "x : {A:Int}", "record types not available in this calculus"),
    ("rec-row1", "x : {A^p:Int}", "presence annotations not available in this calculus"),
    ("rec-row1", "x : forall r0. {A:Int; r0}",
     "row quantifiers not available in this calculus"),
    ("rec-pre1", "r : Row!{A}\n-- env: x : {A:Int; r}",
     "open rows not available in this calculus"),
])
def test_inference_refuses_a_context_the_calculus_cannot_state(
    tmp_path, capsys, command, calculus, header, message
):
    src = tmp_path / "env.row"
    src.write_text(f"-- env: {header}\nx\n")
    assert run([command, "--calculus", calculus, str(src)]) == 1
    assert capsys.readouterr().err == f"rowlab: error: {message}\n"


@pytest.mark.parametrize("command", ["check", "infer"])
def test_inference_takes_an_open_row_of_a_rank1_context(tmp_path, capsys, command):
    src = tmp_path / "env.row"
    src.write_text("-- env: r : Row!{A}\n-- env: x : {A:Int; r}\nx\n")
    assert run([command, "--calculus", "rec-row1", str(src)]) == 0
    assert capsys.readouterr().out == "{A:Int; r}\n"


def _round_trips():
    """(source, target, corpus file) for every pair of every translation and
    every corpus file its source checks."""
    out = []
    for t in TRANSLATIONS.values():
        for source, target in t.pairs:
            for path in sorted(CORPUS.glob("*.row")):
                try:
                    type_check(preset(source), *parse_file_str(path.read_text()))
                except StaticError:
                    continue
                out.append((source, target, path.name))
    return out


ROUND_TRIPS = _round_trips()


def test_every_pair_has_a_round_trip():
    pairs = {pair for t in TRANSLATIONS.values() for pair in t.pairs}
    assert {(source, target) for source, target, _ in ROUND_TRIPS} == pairs


@pytest.mark.parametrize(
    "source, target, name", ROUND_TRIPS, ids=[f"{s}->{g}:{n}" for s, g, n in ROUND_TRIPS]
)
def test_translated_corpus_types_in_the_target(tmp_path, capsys, source, target, name):
    # a rank-1 target infers; any other checks at the type translate prints,
    # up to the names of its binders and absent entries (``type_equal``)
    argv = ["translate", "--from", source, "--to", target, "--json", str(CORPUS / name)]
    assert run(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    out = tmp_path / name
    out.write_text(payload["term"] + "\n")
    rank1 = preset(target).rank1
    assert run(["infer" if rank1 else "check", "--calculus", target, str(out)]) == 0
    shown = capsys.readouterr().out
    if not rank1:
        assert type_equal(parse_type_str(shown), parse_type_str(payload["type"])), shown


# a search row and a sweep row, each with every property it lists
HASH_SEED_RUNS = (
    ["--translation", "rec-sub-to-pre", "--property", "simulation", "--property", "reflection"],
    ["--translation", "erase-upcasts", "--max-size", "12"]
    + [a for p in TRANSLATIONS["erase-upcasts"].properties for a in ("--property", p)],
)


def _verify_text(hash_seed: str, args: list) -> str:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": path}
    out = subprocess.run(
        [sys.executable, "-m", "rowlab.cli", "verify", *args, "--count", "50",
         "--seed", "0", "--json"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    return re.sub(r'"elapsed": [0-9.e+-]+', '"elapsed": 0', out)


@pytest.mark.parametrize("args", HASH_SEED_RUNS, ids=["search", "sweep"])
def test_verify_output_does_not_depend_on_string_hashing(args):
    # the checks' memos and seen sets hash terms, and a term's hash mixes in
    # its strings' hashes, which change with PYTHONHASHSEED
    first = _verify_text("0", args)
    assert json.loads(first) and all(r["passed"] and r["cases"] for r in json.loads(first))
    assert _verify_text("1", args) == first


# Run by a fresh interpreter started with -S, so no site package has loaded
# modules (``random`` among them) before rowlab does.
_COLD_START = """
import json, sys
from rowlab import cli
for argv in json.loads(sys.argv[1]):
    assert cli.run(argv) == 0, argv
assert "rowlab.harness" not in sys.modules and "random" not in sys.modules
assert cli.run(["verify", "--property", "subject-reduction", "--calculus", "rec-sub",
                "--count", "1"]) == 0
assert "rowlab.harness" in sys.modules
"""


def test_only_verify_loads_the_harness():
    # the tests have imported the harness already, hence the new process
    argv = [[*argv[:-1], str(CORPUS / argv[-1])] for argv, *_ in PRINTED]
    assert {a[0] for a in argv} == {"check", "infer", "eval", "erase", "translate"}
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-S", "-c", _COLD_START, json.dumps(argv)],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
