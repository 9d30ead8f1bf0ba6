"""Command line driver: verbs, exit codes, flag placement, sessions."""

import json

import pytest

from opcurve import cli
from opcurve.cli import main
from opcurve.session import Session

CUSP_P = "Dx^2 - 2*1/((x+1)^2)"
CUSP_Q = "Dx^3 - 3*1/((x+1)^2)*Dx + 3*1/((x+1)^3)"
J_GEN = "[[0,1],[z^-1,0]]"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err


# -- verify commute ---------------------------------------------------

def test_verify_commute_cusp_pass(capsys):
    code, out, err = run(capsys, "verify", "commute", CUSP_P, CUSP_Q)
    assert code == 0
    assert out == ["PASS: all commutators zero to precision (Nx=12)"]
    assert err == ""


def test_verify_commute_exact_pass(capsys):
    code, out, _ = run(capsys, "verify", "commute", "Dx^2", "Dx^3")
    assert code == 0
    assert out == ["PASS: all commutators zero exactly"]


def test_verify_commute_witness(capsys):
    code, out, _ = run(capsys, "verify", "commute", "Dx", "x*Dx")
    assert code == 1
    assert out[0] == "FAIL: 1 nonzero commutator(s) exactly"
    assert out[1] == "  [op0, op1] = Dx"


def test_verify_commute_session_operators(capsys, tmp_path):
    path = str(tmp_path / "s.json")
    run(capsys, "--session", path, "session", "set", "P", CUSP_P)
    run(capsys, "--session", path, "session", "set", "Q", CUSP_Q)
    code, out, _ = run(capsys, "--session", path, "verify", "commute")
    assert code == 0
    assert out == ["PASS: all commutators zero to precision (Nx=12)"]


def test_verify_commute_needs_operands(capsys):
    code, out, err = run(capsys, "verify", "commute")
    assert code == 3
    assert "session" in err


# -- pdo verbs --------------------------------------------------------

def test_compose_heisenberg(capsys):
    code, out, _ = run(capsys, "pdo", "commutator", "Dx", "x")
    assert code == 0
    assert out == ["(1)"]


def test_compose_json_is_canonical(capsys):
    code, out, _ = run(capsys, "--json", "pdo", "compose", "Dx", "x")
    assert code == 0
    text = "\n".join(out) + "\n"
    obj = json.loads(text)
    assert obj["type"] == "pdo"
    assert json.dumps(obj, sort_keys=True, indent=2) + "\n" == text


def test_split(capsys):
    code, out, _ = run(capsys, "pdo", "split", "Dx^2 + x*Dx^-1")
    assert code == 0
    assert out == ["differential part: Dx^2",
                   "integral part: (x)*Dx^-1"]


def test_rho_scalar(capsys):
    code, out, _ = run(capsys, "pdo", "rho", "Dx")
    assert code == 0
    assert out == ["z^-1"]


def test_rho_matrix(capsys):
    code, out, _ = run(capsys, "pdo", "rho", "[[0, 1], [Dx, 0]]")
    assert code == 0
    assert out == ["[[0, 1], [z^-1, 0]]"]


def test_root_exact(capsys):
    code, out, _ = run(capsys, "pdo", "root", "Dx^2", "2")
    assert code == 0
    assert out == ["Dx"]


def test_root_truncated_window(capsys):
    code, out, _ = run(capsys, "--depth", "3", "pdo", "root",
                       "Dx^2 + 2*x", "2")
    assert code == 0
    assert out == ["Dx + (x)*Dx^-1 + (-1/2)*Dx^-2",
                   "window: degrees >= -2"]


def test_root_order_mismatch(capsys):
    code, _, err = run(capsys, "pdo", "root", "Dx^4", "2")
    assert code == 3
    assert "order exactly 2" in err


@pytest.mark.parametrize("r", ["0", "-1"])
def test_root_order_below_one_exits_3(capsys, r):
    # the constant 1 is monic of order 0, so r = 0 passes the order check
    code, out, err = run(capsys, "pdo", "root", "1", r)
    assert code == 3
    assert out == []
    assert f"root order must be at least 1, got {r}" in err


def test_invert_matrix(capsys):
    code, out, _ = run(capsys, "pdo", "invert", "[[1,1],[0,1]]")
    assert code == 0
    assert out == ["[[1, -1], [0, 1]]"]


def test_invert_respects_xprec(capsys):
    code, out, _ = run(capsys, "--x-prec", "4", "pdo", "invert", "1 - x")
    assert code == 0
    assert out == ["1 + x + x^2 + x^3", "window: x-precision 4"]


@pytest.mark.parametrize("depth,text,window", [
    ("0", "1 + x*Dx^-1", "window: degrees >= 0"),
    ("1", "1 + Dx^-2", "window: degrees >= -1"),
    ("2", "1 + Dx^-3", "window: degrees >= -2"),
])
def test_invert_above_first_dressing_term_prints_window(capsys, depth, text,
                                                        window):
    code, out, _ = run(capsys, "--depth", depth, "pdo", "invert", text)
    assert code == 0
    assert out == ["(1)", window]


def test_invert_carries_the_window_of_s0(capsys):
    # 1/(1-x)*(1-x) is 1 only below x^3, so the inverse is known no
    # further
    code, out, _ = run(capsys, "--x-prec", "3", "--depth", "2", "pdo",
                       "invert", "1/(1-x)*(1-x) + Dx^-1")
    assert code == 0
    assert out == ["(1) + (-1)*Dx^-1 + (1)*Dx^-2",
                   "window: degrees >= -2, x-precision 2"]


def test_invert_zero_is_domain_error(capsys):
    code, _, err = run(capsys, "pdo", "invert", "0")
    assert code == 3
    assert err.startswith("error (domain):")


# -- grass verbs ------------------------------------------------------

def test_h0h1_base_point(capsys, tmp_path):
    path = str(tmp_path / "s.json")
    run(capsys, "--session", path, "grass", "from-dressing", "1",
        "--store", "W")
    code, out, _ = run(capsys, "--session", path, "grass", "h0h1", "W")
    assert code == 0
    assert out[0] == "h0=0 h1=0 index=0 (big cell)"


def test_stabilizes_verdicts(capsys, tmp_path):
    path = str(tmp_path / "s.json")
    run(capsys, "--session", path, "grass", "from-dressing", "1",
        "--store", "W")
    code, out, _ = run(capsys, "--session", path, "grass", "stabilizes",
                       "W", "z^-1")
    assert code == 0 and out[0].startswith("yes:")
    code, out, _ = run(capsys, "--session", path, "grass", "stabilizes",
                       "W", "z")
    assert code == 1 and out[0].startswith("no:")


def test_dressing_round_trip_through_frame(capsys, tmp_path):
    path = str(tmp_path / "s.json")
    run(capsys, "--session", path, "grass", "from-dressing",
        "1 + x*Dx^-1", "--store", "V")
    code, out, _ = run(capsys, "--session", path, "--depth", "3",
                       "--x-prec", "4", "grass", "to-dressing", "V")
    assert code == 0
    assert out[0] == "(1) + (x)*Dx^-1"


def test_is_differential_action(capsys, tmp_path):
    path = str(tmp_path / "s.json")
    run(capsys, "--session", path, "grass", "from-dressing", "1",
        "--store", "W")
    code, out, _ = run(capsys, "--session", path, "grass",
                       "is-differential", "Dx^2", "W")
    assert code == 0 and out[0].startswith("yes:")
    code, out, _ = run(capsys, "--session", path, "grass",
                       "is-differential", "Dx^-1", "W")
    assert code == 1 and out[0].startswith("no:")


# -- curve verbs ------------------------------------------------------

def test_semigroup_from_orders(capsys):
    code, out, _ = run(capsys, "curve", "semigroup", "--orders", "2,3")
    assert code == 0
    assert out == ["orders: 2, 3 (rank 1, reduced: 2, 3)",
                   "conductor: 2",
                   "genus: 1",
                   "table (members +, gaps -): 0:+ 1:- 2:+",
                   "coprime pair bound: 1"]


def test_semigroup_from_generator(capsys):
    code, out, _ = run(capsys, "curve", "semigroup", J_GEN)
    assert code == 0
    assert out[0] == "orders: 1 (rank 1, reduced: 1)"
    assert "genus: 0" in out


def test_semigroup_needs_input(capsys):
    code, _, err = run(capsys, "curve", "semigroup")
    assert code == 3
    assert "--orders" in err


def test_semigroup_table_up_to_cap(capsys):
    code, out, _ = run(capsys, "curve", "semigroup", "--orders", "32,33")
    assert code == 0
    assert out[1] == "conductor: 992"
    assert out[3].startswith("table (members +, gaps -): 0:+ 1:- ")
    assert out[3].endswith(" 991:- 992:+")


def test_semigroup_table_above_cap(capsys):
    code, out, _ = run(capsys, "curve", "semigroup", "--orders", "33,34")
    assert code == 0
    assert out == ["orders: 33, 34 (rank 1, reduced: 33, 34)",
                   "conductor: 1056",
                   "genus: 528",
                   "table omitted: conductor 1056 exceeds 1000; 528 gaps, "
                   "listed by --json",
                   "coprime pair bound: 1055"]


def test_semigroup_large_output_is_bounded(capsys):
    code = main(["curve", "semigroup", "--orders", "1000,1001"])
    text = capsys.readouterr().out
    assert code == 0
    assert len(text.encode()) < 1024
    code, out, _ = run(capsys, "--json", "curve", "semigroup",
                       "--orders", "1000,1001")
    assert code == 0
    # k = 1000q + r is in <1000, 1001> iff r <= q
    gaps = json.loads("\n".join(out))["gaps"]
    assert gaps == [k for k in range(1, 999000) if k % 1000 > k // 1000]


@pytest.mark.parametrize("orders,text", [
    ("2000,2001", "conductor 3998000 exceeds MAX_CONDUCTOR = 1000000"),
    ("666667,666668,666670", "smallest reduced generator 666667 times 3 "
     "generators exceeds MAX_APERY_WORK = 2000000"),
    ("1000000000,1000000001",
     "smallest reduced generator 1000000000 exceeds MAX_CONDUCTOR"),
    pytest.param(",".join(map(str, range(2, 1417))),
                 "1415 reduced generators squared exceeds MAX_APERY_WORK",
                 id="2..1416"),
])
def test_semigroup_over_cap_is_a_domain_error(capsys, orders, text):
    code, out, err = run(capsys, "curve", "semigroup", "--orders", orders)
    assert code == 3
    assert out == []
    assert text in err


def test_filtration_dimension(capsys):
    code, out, _ = run(capsys, "curve", "filtration", "--bound", "6",
                       "z^-2", "z^-3")
    assert code == 0
    assert out[0] == "dim of the order-bounded piece (bound 6): 6"
    assert "  exponents 1, 1" in out


def test_charpoly(capsys):
    code, out, _ = run(capsys, "curve", "charpoly", J_GEN)
    assert code == 0
    assert out == ["t^2 - z^-1"]


def test_cyclicity_verdicts(capsys):
    code, out, _ = run(capsys, "curve", "cyclicity", J_GEN)
    assert code == 0 and out[0].startswith("yes:")
    code, out, _ = run(capsys, "curve", "cyclicity", "[[z^-1,0],[0,z^-1]]")
    assert code == 1 and out[0].startswith("no:")


def test_condition21(capsys):
    code, out, _ = run(capsys, "curve", "condition21", J_GEN)
    assert code == 0
    assert out == ["commutes: yes",
                   "span dimension: 2 (need 2)",
                   "rank (gcd of orders): 1 (need 1)",
                   "satisfied: yes"]


def test_condition21_failure(capsys):
    code, out, _ = run(capsys, "curve", "condition21", "--n", "2", "z^-2")
    assert code == 1
    assert out[-1] == "satisfied: no"


# -- pipelines --------------------------------------------------------

def test_pipeline_forward_j(capsys, tmp_path):
    path = str(tmp_path / "s.json")
    run(capsys, "--session", path, "grass", "from-dressing",
        "[[1,0],[0,1]]", "--store", "W")
    code, out, _ = run(capsys, "--session", path, "pipeline", "forward",
                       "W", J_GEN)
    assert code == 0
    assert "operator 0: [[0, (1)], [Dx, 0]]  [differential]" in out
    assert "commuting: yes" in out


def test_pipeline_roundtrip_j(capsys, tmp_path):
    path = str(tmp_path / "s.json")
    run(capsys, "--session", path, "grass", "from-dressing",
        "[[1,0],[0,1]]", "--store", "W")
    code, out, _ = run(capsys, "--session", path, "pipeline", "roundtrip",
                       "W", J_GEN)
    assert code == 0
    assert "recovered charpoly: t^2 - z^-1" in out
    assert "round trip closed: yes" in out


def test_pipeline_backward_cusp(capsys):
    code, out, _ = run(capsys, "--depth", "6", "pipeline", "backward",
                       CUSP_P, CUSP_Q)
    assert code == 0
    assert out[0] == "monic operator index: 0"
    assert "constant 0: z^-2" in out
    assert "constant 1: z^-3" in out
    assert "genus: 1" in out
    assert "condition satisfied: yes" in out
    assert out[-1] == ("fredholm: not certified at these windows: column "
                       "windows do not determine the coordinates down to "
                       "class 0")


def test_pipeline_backward_cusp_json_keeps_null_fredholm(capsys):
    code, out, _ = run(capsys, "--json", "--depth", "6", "pipeline",
                       "backward", CUSP_P, CUSP_Q)
    assert code == 0
    obj = json.loads("\n".join(out))
    assert sorted(obj) == ["charpoly", "condition", "constants", "dressing",
                           "fredholm", "monic_index", "point", "semigroup"]
    assert obj["fredholm"] is None


def test_pipeline_backward_names_product_factors(capsys):
    # J is not monic, J o J = Dx * I is: the line names both factors
    code, out, _ = run(capsys, "pipeline", "backward", "[[0,1],[Dx,0]]")
    assert code == 0
    assert out[0] == "monic operator: product of operators 0 and 0"
    assert "constant 0: [[0, 1], [z^-1, 0]]" in out
    code, out, _ = run(capsys, "--json", "pipeline", "backward",
                       "[[0,1],[Dx,0]]")
    assert json.loads("\n".join(out))["monic_index"] == 0


def test_pipeline_backward_depth_zero(capsys):
    # at depth 0 the dressing is the identity and the frame is the
    # standard span, whose counts are certified
    code, out, err = run(capsys, "--depth", "0", "pipeline", "backward",
                         CUSP_P, CUSP_Q)
    assert code == 0
    assert err == ""
    assert "dressing: (1)" in out
    assert out[-1] == "fredholm: h0=0 h1=0 index=0"


# -- sessions and flags -----------------------------------------------

def test_session_set_show(capsys, tmp_path):
    path = str(tmp_path / "s.json")
    code, out, _ = run(capsys, "--session", path, "session", "set",
                       "a", "3/4")
    assert code == 0
    assert out == ["stored 'a' (scalar)"]
    code, out, _ = run(capsys, "--session", path, "session", "show")
    assert code == 0
    assert "a: scalar" in out
    code, out, _ = run(capsys, "--session", path, "session", "show", "a")
    assert code == 0
    assert out == ["3/4"]


def test_session_file_is_canonical(capsys, tmp_path):
    path = tmp_path / "s.json"
    run(capsys, "--session", str(path), "session", "set", "a", "1 - x^2")
    text = path.read_text()
    ses = Session.loads(text)
    assert ses.dumps() == text


def test_store_requires_session(capsys):
    code, _, err = run(capsys, "grass", "from-dressing", "1",
                       "--store", "W")
    assert code == 3
    assert "--session" in err


def test_missing_session_file(capsys, tmp_path):
    path = str(tmp_path / "absent.json")
    code, _, err = run(capsys, "--session", path, "session", "show")
    assert code == 3
    assert "does not exist" in err


def test_unknown_binding_is_domain_error(capsys, tmp_path):
    path = str(tmp_path / "s.json")
    run(capsys, "--session", path, "session", "set", "a", "1")
    code, _, err = run(capsys, "--session", path, "pdo", "compose",
                       "b", "a")
    assert code == 3
    assert "no binding named 'b'" in err


def test_syntax_error_position(capsys):
    code, _, err = run(capsys, "pdo", "compose", "x +", "x")
    assert code == 2
    assert "line 1, column 4" in err


def test_precision_error_exit(capsys):
    code, _, err = run(capsys, "--x-prec", "4", "grass", "from-dressing",
                       "1 + 1/(1+x)*Dx^-1")
    assert code == 4
    assert err.startswith("error (precision):")


def test_backward_exhaustion_names_its_stage(capsys):
    code, out, err = run(capsys, "--x-prec", "12", "--depth", "20",
                         "pipeline", "backward", "Dx^2 - 2*1/((x+2)^2)",
                         "Dx^3 - 3*1/((x+2)^2)*Dx + 3*1/((x+2)^3)")
    assert code == 4
    assert out == []
    assert err.startswith("error (precision): x-precision exhausted in "
                          "dress_to_constant at depth ")


def _usage_error(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    return exc.value.code, capsys.readouterr().err


def test_negative_x_prec_is_usage_error(capsys):
    code, err = _usage_error(capsys, "--x-prec", "-3", "pdo", "rho", "Dx^2")
    assert code == 2
    assert "--x-prec: must be nonnegative" in err


def test_negative_depth_is_usage_error(capsys):
    code, err = _usage_error(capsys, "pdo", "rho", "Dx^2", "--depth", "-2")
    assert code == 2
    assert "--depth: must be nonnegative" in err


@pytest.mark.parametrize("flag,cap,over,text", [
    ("--x-prec", "1000", "1001", "must be at most 1000, got 1001"),
    ("--depth", "100", "101", "must be at most 100, got 101"),
    ("--z-lo", "-1000", "-1001", "must be at least -1000, got -1001"),
    ("--z-hi", "1000", "1001", "must be at most 1000, got 1001"),
])
def test_flag_above_cap_is_usage_error(capsys, monkeypatch, flag, cap, over,
                                       text):
    def no_verb(env, args):
        raise AssertionError("the verb ran")

    monkeypatch.setattr(cli, "_cmd_pdo_invert", no_verb)
    for argv in ((flag, over, "pdo", "invert", "x"),
                 ("pdo", "invert", "x", flag, over)):
        code, err = _usage_error(capsys, *argv)
        assert code == 2
        assert f"{flag}: {text}" in err
    # the cap itself is admitted and reaches the verb
    with pytest.raises(AssertionError, match="the verb ran"):
        main([flag, cap, "pdo", "invert", "x"])


@pytest.mark.parametrize("key,value,bounds", [
    ("xprec", 1001, "[0, 1000]"),
    ("depth", 101, "[0, 100]"),
    ("depth", -5, "[0, 100]"),
    ("zlo", -1001, "[-1000, 1000]"),
    ("zhi", 1001, "[-1000, 1000]"),
])
def test_session_context_outside_cap_is_domain_error(capsys, monkeypatch,
                                                     tmp_path, key, value,
                                                     bounds):
    def no_verb(env, args):
        raise AssertionError("the verb ran")

    path = tmp_path / "work.json"
    ses = Session()
    ses.save(path)
    data = json.loads(path.read_text())
    data["context"][key] = value
    path.write_text(json.dumps(data))
    monkeypatch.setattr(cli, "_cmd_pdo_invert", no_verb)
    code, out, err = run(capsys, "--session", str(path), "pdo", "invert",
                         "1 + x*Dx^-1")
    assert code == 3
    assert out == []
    assert (f"error (domain): context {key} must be an integer in {bounds}, "
            f"got {value}") in err


def test_exponent_above_cap_is_usage_error(capsys):
    code, out, err = run(capsys, "pdo", "compose", "x^1001", "Dx")
    assert code == 2
    assert out == []
    assert "exponent 1001 exceeds MAX_EXPONENT = 1000" in err


def test_json_error_goes_to_stdout(capsys):
    code, out, err = run(capsys, "--json", "pdo", "invert", "0")
    assert code == 3
    assert err == ""
    obj = json.loads("\n".join(out))
    assert obj["error"]["category"] == "domain"


def test_flags_after_verb_equivalent(capsys):
    code1, out1, _ = run(capsys, "--x-prec", "4", "pdo", "invert", "1 - x")
    code2, out2, _ = run(capsys, "pdo", "invert", "1 - x",
                         "--x-prec", "4")
    assert (code1, out1) == (code2, out2)
