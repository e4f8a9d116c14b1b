"""Tests for the command-line front end (plumbing only; algebra lives below)."""

import hashlib
import json
from fractions import Fraction as Q

import pytest

from qtalg.cli import main, parse_point, parse_window, parse_word, UsageError
from qtalg.scalars import QPower


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- input grammars -----------------------------------------------------------


def test_parse_point_grammar():
    point = parse_point("(-1, q^1/2, 5*q^-2, 3/2, -q)")
    assert point == (
        QPower.of(-1),
        QPower.q(Q(1, 2)),
        QPower.of(5) * QPower.q(-2),
        QPower.of(Q(3, 2)),
        QPower.of(-1) * QPower.q(1),
    )


def test_parse_point_rejects_junk():
    with pytest.raises(UsageError, match="coordinate"):
        parse_point("(x)")
    with pytest.raises(UsageError, match="nonzero"):
        parse_point("(0)")


def test_parse_window():
    win = parse_window("(-3:2,0:0)", 2)
    assert win.points()[0] == (-3, 0) and len(win) == 6
    with pytest.raises(UsageError, match="2 ranges"):
        parse_window("(-3:2)", 2)
    with pytest.raises(UsageError, match="lo:hi"):
        parse_window("(bad)", 1)


def test_parse_word():
    assert parse_word("T1 T0 T1") == [1, 0, 1]
    with pytest.raises(UsageError, match="generator"):
        parse_word("T1 S2")


# -- headline examples --------------------------------------------------------


def test_relations_check_a2(capsys):
    code, out, _ = run(capsys, "relations", "check", "--root-system", "A2", "--v", "1")
    assert code == 0
    assert "all identities verified" in out
    assert out.count("verified") >= 6


def test_module_isotropy_d4_reports_order_two(capsys):
    code, out, _ = run(
        capsys,
        "module",
        "isotropy",
        "--root-system",
        "D4",
        "--lambda",
        "(-1,q^1/2,-1,-q^1/2)",
    )
    assert code == 0
    assert "isotropy group order 2" in out


def test_loop_nf_echoes_an_already_normal_input(capsys, tmp_path):
    matrix = {
        "n": 2,
        "entries": [
            [
                {"0": {"num": [{"qexp": "1", "texp": 0, "vexp": 0, "coeff": "1"}],
                        "den": [{"qexp": "0", "texp": 0, "vexp": 0, "coeff": "1"}]}},
                {"1": {"num": [{"qexp": "1", "texp": 0, "vexp": 0, "coeff": "7/2"}],
                        "den": [{"qexp": "0", "texp": 0, "vexp": 0, "coeff": "1"}]}},
            ],
            [{}, {"0": {"num": [{"qexp": "0", "texp": 0, "vexp": 0, "coeff": "1"}],
                         "den": [{"qexp": "0", "texp": 0, "vexp": 0, "coeff": "1"}]}}],
        ],
    }
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(matrix))
    code, out, _ = run(capsys, "loop", "nf", "--matrix", f"@{path}")
    assert code == 0
    assert "s = (q, 1)" in out
    assert "f = [(1), 0; 0, (1)]" in out
    assert out.count("yes") == 3

    code, out, _ = run(capsys, "--json", "loop", "nf", "--matrix", f"@{path}")
    doc = json.loads(out)
    assert doc["schema"] == "qtalg/normal-form/v1"
    assert all(doc["transcript"].values())
    assert doc["conjugator"]["entries"][0][1] == {}


def test_qtorus_mul_applies_the_twist(capsys):
    code, out, _ = run(
        capsys,
        "qtorus",
        "mul",
        "--pairing",
        "[[1]]",
        "--a",
        '[{"x":[1],"y":[0],"coeff":1}]',
        "--b",
        '[{"x":[0],"y":[1],"coeff":1}]',
        "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "qtalg/torus-element/v1"
    [term] = doc["product"]
    assert term["x"] == [1] and term["y"] == [1]
    assert term["coeff"]["den"] == [{"qexp": "1/2", "texp": 0, "vexp": 0, "coeff": "1"}]


def test_qtorus_invariant_split_exit_codes(capsys):
    sym = '[{"x":[1],"y":[0],"coeff":1},{"x":[-1],"y":[0],"coeff":1}]'
    code, out, _ = run(
        capsys, "qtorus", "invariant", "--root-system", "A1", "--element", sym
    )
    assert code == 0 and "Weyl-invariant: yes" in out
    code, out, _ = run(
        capsys,
        "qtorus",
        "invariant",
        "--root-system",
        "A1",
        "--element",
        '[{"x":[1],"y":[0],"coeff":1}]',
    )
    assert code == 1 and "Weyl-invariant: no" in out


def test_daha_op_member_round_trip(capsys):
    code, out, _ = run(
        capsys,
        "daha",
        "op",
        "--root-system",
        "A1",
        "--word",
        "T1 T0",
        "--v",
        "1",
        "--json",
    )
    assert code == 0
    op = json.dumps(json.loads(out)["operator"])
    code, out, _ = run(
        capsys, "daha", "member", "--root-system", "A1", "--op", op
    )
    assert code == 0 and "member" in out


def test_spherical_check_rejects_a_bare_generator(capsys):
    code, out, _ = run(
        capsys,
        "daha",
        "op",
        "--root-system",
        "A1",
        "--word",
        "T1",
        "--v",
        "1",
        "--json",
    )
    op = json.dumps(json.loads(out)["operator"])
    code, out, _ = run(
        capsys, "spherical", "check", "--root-system", "A1", "--op", op
    )
    assert code == 1
    assert "NOT spherical" in out and "right-ratio" in out


def test_spherical_e_is_spherical_via_cli(capsys):
    code, out, _ = run(
        capsys, "spherical", "e", "--root-system", "A1", "--v", "1", "--json"
    )
    assert code == 0
    op = json.dumps(json.loads(out)["operator"])
    code, out, _ = run(
        capsys, "spherical", "check", "--root-system", "A1", "--op", op
    )
    assert code == 0 and "spherical" in out


def test_membership_refuses_documents_built_at_another_v(capsys):
    code, doc, _ = run(
        capsys, "daha", "op", "--root-system", "A1", "--v", "2", "--word", "T1", "--json"
    )
    assert code == 0
    code, out, _ = run(
        capsys, "daha", "member", "--root-system", "A1", "--op", doc, "--json"
    )
    assert code == 1
    assert json.loads(out) == {
        "schema": "qtalg/error/v1",
        "error": "membership is stated at v = 1; the --op document has v = 2",
    }


def test_spherical_check_reads_the_v_of_the_document(capsys):
    code, doc, _ = run(capsys, "spherical", "e", "--root-system", "A1", "--json")
    assert code == 0 and json.loads(doc)["config"]["v"] == "symbolic"
    code, out, _ = run(
        capsys, "spherical", "check", "--root-system", "A1", "--op", doc
    )
    assert code == 0 and out.splitlines()[-1].startswith("spherical:")
    code, doc, _ = run(
        capsys, "daha", "op", "--root-system", "A1", "--v", "2", "--word", "T1", "--json"
    )
    assert code == 0
    code, out, _ = run(
        capsys, "spherical", "check", "--root-system", "A1", "--op", doc
    )
    assert code == 1
    assert any(line.startswith("  right-ratio at node 1") for line in out.splitlines())
    # a whole document at v = 1 is read as before
    code, doc, _ = run(
        capsys, "spherical", "e", "--root-system", "A1", "--v", "1", "--json"
    )
    assert code == 0
    code, out, _ = run(
        capsys, "spherical", "check", "--root-system", "A1", "--op", doc
    )
    assert code == 0 and "spherical" in out


def test_spherical_xi_word(capsys):
    code, out, _ = run(capsys, "spherical", "xi", "--word", "T1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "qtalg/expression/v1"
    assert len(doc["image"]["terms"]) == 2  # v(t - 1/t) - T1


def test_module_act_diagonal_weight(capsys):
    code, out, _ = run(
        capsys,
        "module",
        "act",
        "--root-system",
        "A1",
        "--lambda",
        "(q^1/2)",
        "--window",
        "(-1:1)",
        "--element",
        '[{"x":[2],"y":[0],"coeff":1}]',
        "--vector",
        '[{"y":[1],"comp":0,"coeff":1}]',
    )
    assert code == 0 and "v[[1]] = q^3" in out


def test_module_zchi_sign_dimension(capsys):
    code, out, _ = run(
        capsys,
        "module",
        "zchi",
        "--root-system",
        "A2",
        "--lambda",
        "(q^1/2,1)",
        "--window",
        "(-3:2,0:0)",
        "--chi",
        "sign",
        "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["dimension"] == 3 and len(doc["vectors"]) == 3


def test_loop_centralizer_d4(capsys):
    code, out, _ = run(
        capsys,
        "loop",
        "centralizer",
        "--root-system",
        "D4",
        "--point",
        "(-1,q^1/2,-1,-q^1/2)",
    )
    assert code == 0
    assert "component order 2" in out and "flagged roots: []" in out


def test_clifford_table_and_count(capsys):
    s3 = '{"degree":3,"generators":[[1,0,2],[1,2,0]]}'
    c3 = '{"degree":3,"generators":[[1,2,0]]}'
    code, out, _ = run(capsys, "clifford", "table", "--group", s3, "--json")
    assert code == 0
    doc = json.loads(out)
    assert sorted(doc["table"]["degrees"]) == [1, 1, 2]
    code, out, _ = run(
        capsys, "clifford", "count", "--group", s3, "--normal", c3
    )
    assert code == 0 and "predicted 3, direct 3, matches" in out


def test_clifford_bound_is_a_check_failure(capsys):
    big = '{"degree":6,"generators":[[1,2,3,4,5,0],[1,0,2,3,4,5]]}'
    code, out, err = run(capsys, "clifford", "table", "--group", big, "--bound", "100")
    assert code == 1 and "bound" in err


# -- suite wiring ----------------------------------------------------------------


def test_suite_subset_and_json_determinism(capsys):
    args = ("suite", "--checks", "shift-equation", "--seed", "7", "--json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["schema"] == "qtalg/suite/v1"
    assert doc["ok"] and doc["checks"][0]["name"] == "shift-equation"
    assert "seconds" not in doc["checks"][0]


def test_suite_seed_env_override(capsys, monkeypatch):
    code, flagged, _ = run(
        capsys, "suite", "--checks", "isotropy-d4", "--seed", "9", "--json"
    )
    monkeypatch.setenv("QTORUS_SEED", "9")
    code2, from_env, _ = run(capsys, "suite", "--checks", "isotropy-d4", "--json")
    assert code == code2 == 0 and flagged == from_env


# -- byte-identical documents -----------------------------------------------------

# sha256 of stdout, recorded before operator coefficients were moved by a
# single non-reducing substitution; a change of algorithm must not move a byte
PINNED_DOCUMENTS = {
    "daha-op-a1": (
        ("daha", "op", "--json", "--root-system", "A1", "--v", "1", "--word", "T0 T1 T0"),
        "3460f00adb3a8c61e3486cfdcda2f6daf78919c67008894ea2cdf0b08ed283f7",
    ),
    "daha-op-a1-weight": (
        (
            "daha", "op", "--json", "--root-system", "A1", "--lattice", "weight",
            "--v", "1/2", "--word", "T0 T1",
        ),
        "303f725df732c8712d781945def32fea2a9f43e2929340e3c4636f6f9ea57c73",
    ),
    # recorded before coefficients were summed once over an lcm denominator;
    # its denominators run along the non-primitive roots (2,-2) and (0,2)
    "daha-op-b2-weight-symbolic": (
        (
            "daha", "op", "--json", "--root-system", "B2", "--lattice", "weight",
            "--v", "symbolic", "--word", "T0 T2 T1",
        ),
        "822b303d81d4e94d586ce3944b44729307d0c47cb3e3c021227473bb11b6fc8d",
    ),
    "spherical-e-a1-symbolic": (
        ("spherical", "e", "--json", "--root-system", "A1", "--v", "symbolic"),
        "4f893b7aa9b842f184f3b83405d34a0be0d0eea82b22affa2f45e29c24758080",
    ),
    "spherical-e-a2-symbolic": (
        ("spherical", "e", "--json", "--root-system", "A2", "--v", "symbolic"),
        "93fc8c765a886c2726c5b73d26238a7f989117196996e56ddc86be1280e16f00",
    ),
    "qtorus-witness-random": (
        (
            "qtorus", "witness", "--json", "--pairing", "[[1,0],[0,1]]",
            "--random", "25", "--seed", "5",
        ),
        "dd1e7102ee1a54635baea7a5eea12fbe4a87023b20a64b937bdbe5c565f3a4a6",
    ),
    # the whole Dixon table of S3 wr S2, so a change to the split mod p or
    # to the lift of the values shows here
    "clifford-table-s3-wreath": (
        (
            "clifford", "table", "--json", "--group",
            '{"degree": 6, "generators": [[1,0,2,3,4,5],[1,2,0,3,4,5],'
            '[0,1,2,4,3,5],[0,1,2,4,5,3],[3,4,5,0,1,2]]}',
        ),
        "1a120ab4eaf2ca4d7013b053b87e410ccf0020031065e8dbc53e796aa666b1ea",
    ),
    "module-zchi-a2-sign": (
        (
            "module", "zchi", "--json", "--root-system", "A2",
            "--lambda", "(q^1/2,1)", "--window", "(-3:2,0:0)", "--chi", "sign",
        ),
        "5d1ccc389fa4aaa6eb8002225dd2da38fca597bb85be7e94cd1f33fd784645bd",
    ),
    "loop-centralizer-d4": (
        (
            "loop", "centralizer", "--json", "--root-system", "D4",
            "--point", "(-1, q^1/2, -1, -q^1/2)",
        ),
        "4a5e8e28ab2e334c5d76389a9a34bcfaff1e76ed7aa469877e7f02599ac1eb03",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_DOCUMENTS))
def test_json_documents_are_byte_identical(capsys, name):
    argv, digest = PINNED_DOCUMENTS[name]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# membership documents read an operator document: (daha op arguments, sha256
# of the member document on the same chart); on the weight chart of A2 the
# pole of T2 lies along alpha_2 = (-1, 2), stored as (1, -2)
PINNED_MEMBERSHIP = {
    "daha-member-a2-weight-t2": (
        ("--root-system", "A2", "--lattice", "weight", "--v", "1", "--word", "T2"),
        "1367ffe15a49eb38eb4e1c11005fe0668559c597b266523d0388af955efeddde",
    ),
}


def _member(capsys, op_argv, *flags):
    code, out, _ = run(capsys, "daha", "op", "--json", *op_argv)
    assert code == 0
    chart = op_argv[: op_argv.index("--v")]
    op = json.dumps(json.loads(out)["operator"])
    return run(capsys, "daha", "member", *flags, *chart, "--op", op)


@pytest.mark.parametrize("name", sorted(PINNED_MEMBERSHIP))
def test_membership_documents_are_byte_identical(capsys, name):
    op_argv, digest = PINNED_MEMBERSHIP[name]
    code, out, _ = _member(capsys, op_argv, "--json")
    assert code == 0 and json.loads(out)["ok"]
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_membership_refuses_a_non_primitive_root(capsys):
    # A1's root is twice the fundamental weight
    op_argv = ("--root-system", "A1", "--lattice", "weight", "--v", "1", "--word", "T1")
    code, out, _ = _member(capsys, op_argv, "--json")
    assert code == 1
    assert json.loads(out) == {
        "schema": "qtalg/error/v1",
        "error": "membership needs primitive roots; [2] is not",
    }
    code, _, err = _member(capsys, op_argv)
    assert code == 1 and "[2] is not" in err


# -- error paths -------------------------------------------------------------------


def test_usage_errors_exit_two(capsys):
    code, _, err = run(capsys, "suite", "--checks", "no-such")
    assert code == 2 and "unknown checks" in err
    code, _, err = run(capsys, "module", "isotropy", "--lambda", "(1)")
    assert code == 2 and "--root-system or --cartan" in err
    code, _, err = run(
        capsys, "module", "isotropy", "--root-system", "A1", "--lambda", "(zzz)"
    )
    assert code == 2 and "coordinate" in err
    code, _, err = run(capsys, "clifford", "table", "--group", "not json")
    assert code == 2 and "JSON" in err
    for bad in (
        '{"degree": 3, "generators": [1, 2]}',
        '{"degree": 3, "generators": [[0, 1, null]]}',
        '{"degree": "x", "generators": []}',
        '{"degree": -2, "generators": []}',
        '{"degree": true, "generators": []}',
        '{"degree": 3, "generators": {"0": [1, 0, 2]}}',
        "[3, [[1, 0, 2]]]",
    ):
        code, _, err = run(capsys, "clifford", "table", "--group", bad)
        assert code == 2 and '"degree": n' in err, bad
        code, _, err = run(
            capsys, "clifford", "count", "--group", '{"degree": 3, "generators": []}',
            "--normal", bad,
        )
        assert code == 2 and "--normal" in err, bad
    # a well-formed list that is not a permutation stays a failed check
    code, _, err = run(
        capsys, "clifford", "table", "--group", '{"degree": 3, "generators": [[0, 0, 1]]}'
    )
    assert code == 1 and "not a permutation" in err
    code, _, err = run(capsys, "loop")
    assert code == 2


def test_check_failures_exit_one_with_json_error(capsys):
    bad = '{"n":1,"entries":[[{"0":{"num":[{"qexp":"1","texp":0,"vexp":1,"coeff":"1"}],"den":[{"qexp":"0","texp":0,"vexp":0,"coeff":"1"}]}}]]}'
    code, out, _ = run(capsys, "--json", "loop", "nf", "--matrix", bad)
    assert code == 1
    doc = json.loads(out)
    assert doc["schema"] == "qtalg/error/v1" and "q only" in doc["error"]


def test_cartan_matrix_alternative(capsys):
    code, out, _ = run(
        capsys, "relations", "check", "--cartan", "[[2,-1],[-1,2]]", "--v", "1"
    )
    assert code == 0 and "all identities verified" in out
