import json
import subprocess
import sys
from fractions import Fraction

import pytest

from ssred import cli, errors
from ssred.cli import main
from ssred.errors import InternalInvariantViolation, InvalidInput, SsredError
from ssred.exact import Field
from ssred.repfile import (
    canonical_json,
    load_rep,
    parse_rep,
    scalar_to_str,
    serialize_rep,
)

F2 = Field.prime(2)
F3 = Field.prime(3)
QQ = Field.rational()


def rep_text(n, field, gens, name=None):
    payload = {"n": n, "field": field, "generators": gens}
    if name is not None:
        payload["name"] = name
    return canonical_json(payload)


def write_rep(tmp_path, fname, n, field, gens, name=None):
    path = tmp_path / fname
    path.write_text(rep_text(n, field, gens, name), encoding="utf-8")
    return str(path)


UNIPOTENT = (2, {"kind": "prime", "p": 2}, [[["1", "1"], ["0", "1"]]])
ROTATION = (2, {"kind": "prime", "p": 3}, [[["0", "2"], ["1", "0"]]])
UNIPOTENT_Q = (2, {"kind": "rational"}, [[["1", "1"], ["0", "1"]]])


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, json.loads(out)


def assert_no_floats(x):
    if isinstance(x, float):
        raise AssertionError(f"float leaked into report: {x}")
    if isinstance(x, dict):
        for k, v in x.items():
            assert_no_floats(k)
            assert_no_floats(v)
    elif isinstance(x, list):
        for v in x:
            assert_no_floats(v)


def test_parse_and_roundtrip():
    text = rep_text(*UNIPOTENT, name="unipotent")
    rep = parse_rep(text)
    assert rep.n == 2 and rep.field is F2 and rep.name == "unipotent"
    assert serialize_rep(rep) == text


def test_roundtrip_rational_entries():
    text = rep_text(2, {"kind": "rational"},
                    [[["1/2", "0"], ["-3", "2/3"]]])
    rep = parse_rep(text)
    assert rep.generators[0].entries[0][0] == Fraction(1, 2)
    assert serialize_rep(rep) == text


def test_parse_normalizes_entries():
    rep = parse_rep(rep_text(2, {"kind": "prime", "p": 3},
                             [[["5", "-1"], ["0", "1"]]]))
    assert rep.generators[0].entries == ((2, 2), (0, 1))
    rep = parse_rep(rep_text(1, {"kind": "rational"}, [[["4/6"]]]))
    assert scalar_to_str(QQ, rep.generators[0].entries[0][0]) == "2/3"
    # JSON integers read as their decimal strings
    rep = parse_rep(rep_text(2, {"kind": "prime", "p": 3}, [[[5, -1], [0, 1]]]))
    assert rep.generators[0].entries == ((2, 2), (0, 1))
    rep = parse_rep(rep_text(1, {"kind": "rational"}, [[[-4]]]))
    assert rep.generators[0].entries == ((Fraction(-4),),)


def test_parse_rejections():
    bad = [
        "not json",
        json.dumps({"n": 2, "field": {"kind": "prime", "p": 2}}),
        json.dumps({"n": 2, "field": {"kind": "septic"}, "generators": []}),
        json.dumps({"n": 0, "field": {"kind": "prime", "p": 2}, "generators": []}),
        json.dumps({"n": 2, "field": {"kind": "prime", "p": 2}, "generators": []}),
        rep_text(2, {"kind": "prime", "p": 2}, [[["1", "1"]]]),
        rep_text(2, {"kind": "prime", "p": 2}, [[["1", "1"], ["1", "1"]]]),
        rep_text(1, {"kind": "rational"}, [[["1/0"]]]),
        rep_text(2, {"kind": "prime", "p": 4}, [[["1", "0"], ["0", "1"]]]),
        # outside the entry grammar: floats, exponents, underscores, spaces,
        # decimal points, a leading plus sign, non-ASCII digits, booleans
        rep_text(1, {"kind": "rational"}, [[[1.5]]]),
        rep_text(1, {"kind": "rational"}, [[[0.1]]]),
        rep_text(1, {"kind": "prime", "p": 5}, [[[2.0]]]),
        rep_text(1, {"kind": "rational"}, [[["1e3"]]]),
        rep_text(1, {"kind": "rational"}, [[["1_0"]]]),
        rep_text(1, {"kind": "prime", "p": 5}, [[["1_1"]]]),
        rep_text(1, {"kind": "rational"}, [[[" 3"]]]),
        rep_text(1, {"kind": "prime", "p": 5}, [[[" 3"]]]),
        rep_text(1, {"kind": "rational"}, [[["1.5"]]]),
        rep_text(1, {"kind": "prime", "p": 5}, [[["1/2"]]]),
        rep_text(1, {"kind": "rational"}, [[["+3"]]]),
        rep_text(1, {"kind": "prime", "p": 5}, [[["\u0663"]]]),
        rep_text(1, {"kind": "prime", "p": 5}, [[[True]]]),
        json.dumps({"n": True, "field": {"kind": "prime", "p": 5}, "generators": [[["1"]]]}),
        json.dumps({"n": 1, "field": {"kind": "prime", "p": 5.0}, "generators": [[["1"]]]}),
        # a prime past the 2^31 cap, an int past Python's 4300-digit limit,
        # nesting past what json.loads can recurse into, and bodies that
        # are not text
        json.dumps({"n": 1, "field": {"kind": "prime", "p": 2**127 - 1}, "generators": [[["1"]]]}),
        '{"n": 1, "field": {"kind": "prime", "p": ' + "1" * 5000 + '}, "generators": [[["1"]]]}',
        "[" * 100000,
        5,
        None,
    ]
    for text in bad:
        with pytest.raises(InvalidInput):
            parse_rep(text)


def test_load_rep_digest(tmp_path):
    import hashlib
    path = write_rep(tmp_path, "u.json", *UNIPOTENT)
    rep, digest = load_rep(path)
    with open(path, "rb") as fh:
        raw = fh.read()
    assert digest == "sha256:" + hashlib.sha256(raw).hexdigest()
    with pytest.raises(InvalidInput):
        load_rep(str(tmp_path / "missing.json"))


def test_cli_check(tmp_path, capsys):
    path = write_rep(tmp_path, "u.json", *UNIPOTENT)
    code, report = run_cli(["check", "--input", path, "--oracle"], capsys)
    assert code == 0
    assert report["status"] == "ok"
    assert report["result"]["gcr"] is False
    assert report["result"]["oracle"] == {"agrees": True, "gcr": False}
    assert report["inputs"]["input"]["digest"].startswith("sha256:")
    assert_no_floats(report)

    path = write_rep(tmp_path, "r.json", *ROTATION)
    code, report = run_cli(["check", "--input", path, "--oracle"], capsys)
    assert code == 0 and report["result"]["gcr"] is True

    # over QQ the oracle is unavailable, but the pipeline's verdict stays
    path = write_rep(tmp_path, "uq.json", *UNIPOTENT_Q)
    code, report = run_cli(["check", "--input", path, "--oracle"], capsys)
    assert code == 0 and report["status"] == "ok"
    assert report["result"]["gcr"] is False
    assert report["result"]["certificate"] == {"obstructionDim": 1, "semisimple": False}
    assert report["result"]["oracle"] == {
        "available": False, "reason": "the brute-force oracle only works over finite fields"}


def test_cli_ss(tmp_path, capsys):
    path = write_rep(tmp_path, "u.json", *UNIPOTENT)
    code, report = run_cli(["ss", "--input", path, "--out",
                            str(tmp_path / "out.json")], capsys)
    assert code == 0
    assert report["result"]["weights"] == [2, 1]
    assert report["result"]["ssGenerators"] == [[["1", "0"], ["0", "1"]]]
    assert report["result"]["lIrreducible"] is True
    assert_no_floats(report)
    # --out write matches stdout exactly
    saved = json.loads((tmp_path / "out.json").read_text())
    assert saved == report

    path = write_rep(tmp_path, "uq.json", *UNIPOTENT_Q)
    code, rational = run_cli(["ss", "--input", path], capsys)
    assert code == 0
    assert rational["result"]["weights"] == [2, 1]
    assert rational["result"]["ssGenerators"] == [[["1", "0"], ["0", "1"]]]


def test_cli_ss_deterministic(tmp_path, capsys):
    path = write_rep(tmp_path, "u.json", *UNIPOTENT)
    main(["ss", "--input", path])
    first = capsys.readouterr().out
    main(["ss", "--input", path])
    second = capsys.readouterr().out
    assert first == second


def test_cli_conjugacy(tmp_path, capsys):
    gens = [[["1", "1", "0"], ["0", "1", "0"], ["0", "0", "1"]]]
    path = write_rep(tmp_path, "j.json", 3, {"kind": "prime", "p": 3}, gens)
    code, report = run_cli(["conjugacy", "--input", path,
                            "--seed", "0", "--seed-b", "2"], capsys)
    assert code == 0
    assert report["result"]["verified"] is True
    assert report["result"]["seedA"] == 0 and report["result"]["seedB"] == 2
    g = report["result"]["g"]
    assert len(g) == 3 and all(len(row) == 3 for row in g)


@pytest.mark.parametrize("command", ["check", "optimal", "oracle"])
def test_seed_only_on_commands_that_build_a_series(tmp_path, capsys, command):
    """check, optimal and oracle make no seeded choice, so they take no
    --seed."""
    path = write_rep(tmp_path, "u.json", *UNIPOTENT)
    with pytest.raises(SystemExit) as exc:
        main([command, "--input", path, "--seed", "1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_cli_clifford(tmp_path, capsys):
    m_path = write_rep(tmp_path, "m.json", 2, {"kind": "prime", "p": 3},
                       [[["0", "1"], ["1", "0"]], [["1", "0"], ["0", "2"]]])
    h_path = write_rep(tmp_path, "h.json", 2, {"kind": "prime", "p": 3},
                       [[["1", "0"], ["0", "2"]], [["2", "0"], ["0", "1"]]])
    code, report = run_cli(["clifford", "--m", m_path, "--h", h_path], capsys)
    assert code == 0
    assert report["result"]["ambient"]["blockSizes"] == [2]
    assert report["result"]["normal"]["certificate"]["semisimple"] is True

    bad_h = write_rep(tmp_path, "bad.json", 2, {"kind": "prime", "p": 3},
                      [[["1", "0"], ["0", "2"]]])
    code = main(["clifford", "--m", m_path, "--h", bad_h])
    capsys.readouterr()
    assert code == 2  # not normal


def test_cli_optimal(tmp_path, capsys):
    path = write_rep(tmp_path, "u.json", *UNIPOTENT)
    code, report = run_cli(["optimal", "--input", path, "--max-weight", "3"],
                           capsys)
    assert code == 0
    assert report["result"]["measure"] == "2"
    assert len(report["result"]["argmax"]) == 1
    assert report["result"]["argmax"][0]["weights"] == [1, -1]
    assert report["result"]["findings"] == []
    assert_no_floats(report)

    j3 = write_rep(tmp_path, "j3.json", 3, {"kind": "prime", "p": 2},
                   [[["1", "1", "0"], ["0", "1", "1"], ["0", "0", "1"]]])
    code, report = run_cli(["optimal", "--input", j3], capsys)
    assert code == 1
    assert report["status"] == "finding"
    assert report["result"]["measure"] == "3/2"
    assert len(report["result"]["findings"]) == 2

    rot = write_rep(tmp_path, "r.json", *ROTATION)
    code = main(["optimal", "--input", rot])
    out = capsys.readouterr().out
    assert code == 2
    assert json.loads(out)["error"]["type"] == "PreconditionNotDestabilizable"


def test_cli_oracle(tmp_path, capsys):
    path = write_rep(tmp_path, "u.json", *UNIPOTENT)
    code, report = run_cli(["oracle", "--input", path], capsys)
    assert code == 0
    assert report["result"]["gcr"] is False
    assert report["result"]["accessibleClosedOrbitCount"] == 1
    assert "soundnessNote" in report["result"]

    code = main(["oracle", "--input", path, "--max-group-order", "5"])
    out = capsys.readouterr().out
    assert code == 3
    assert json.loads(out)["error"]["type"] == "ResourceBoundExceeded"

    q_path = write_rep(tmp_path, "q.json", *UNIPOTENT_Q)
    code = main(["oracle", "--input", q_path])
    capsys.readouterr()
    assert code == 2


def test_cli_invalid_file(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("{nope", encoding="utf-8")
    code = main(["check", "--input", str(path)])
    out = capsys.readouterr().out
    assert code == 2
    assert json.loads(out)["status"] == "error"

    code = main(["check", "--input", str(tmp_path / "absent.json")])
    capsys.readouterr()
    assert code == 2

    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000, encoding="utf-8")
    code = main(["check", "--input", str(deep)])
    out = capsys.readouterr().out
    assert code == 2
    assert json.loads(out)["error"]["type"] == "InvalidInput"


def test_console_entry_point(tmp_path):
    path = write_rep(tmp_path, "u.json", *UNIPOTENT)
    proc = subprocess.run(
        [sys.executable, "-m", "ssred.cli", "ss", "--input", path],
        capture_output=True, text=True)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["result"]["weights"] == [2, 1]


def test_singular_generator_rejected_on_load(tmp_path, capsys):
    path = write_rep(tmp_path, "s.json", 2, {"kind": "prime", "p": 2},
                     [[["1", "1"], ["1", "1"]]])
    code = main(["check", "--input", path])
    capsys.readouterr()
    assert code == 2


def test_cli_maps_every_error_to_one_exit_code():
    """Each error class of the package lands in exactly one of the CLI's
    exit-code groups, so adding or deleting a class cannot leave the
    mapping stale."""
    classes = [obj for obj in vars(errors).values()
               if isinstance(obj, type) and issubclass(obj, SsredError) and obj is not SsredError]
    groups = (cli._INPUT_ERRORS, cli._RESOURCE_ERRORS, (InternalInvariantViolation,))
    for cls in classes:
        assert sum(cls in group for group in groups) == 1, cls.__name__
    assert set(classes) == {cls for group in groups for cls in group}
