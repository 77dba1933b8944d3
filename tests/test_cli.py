import json
import os

import pytest

from deltasum import cli
from deltasum.cli import build_parser, main


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("DELTASUM_CACHE", str(tmp_path / "cache"))
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sum_kloosterman_json(capsys):
    code, out, _ = run(capsys, "sum", "kloosterman", "--m", "1", "--n", "1",
                       "--c", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["re"] - (-1.0)) < 1e-9
    assert abs(payload["im"]) < 1e-12
    assert payload["terms"] == 2


def test_sum_plain_and_csv(capsys):
    code, out, _ = run(capsys, "sum", "kloosterman", "--m", "0", "--n", "1", "--c", "4")
    assert code == 0 and "value =" in out
    code, out, _ = run(capsys, "sum", "kloosterman", "--m", "0", "--n", "1",
                       "--c", "4", "--csv")
    assert code == 0
    assert len(out.strip().split(",")) == 4


def test_sum_ramanujan(capsys):
    code, out, _ = run(capsys, "sum", "ramanujan", "--q", "6", "--n", "1", "--json")
    assert code == 0 and json.loads(out) == {"value": 1}
    code, out, _ = run(capsys, "sum", "ramanujan", "--q", "4", "--n", "2")
    assert code == 0 and out.strip() == "-2"


def test_sum_gauss_dsum_c3_c4_twisted(capsys):
    code, out, _ = run(capsys, "sum", "gauss", "--modulus", "5", "--chi-index", "2",
                       "--json")
    assert code == 0
    assert abs(json.loads(out)["re"] - 5 ** 0.5) < 1e-9
    code, out, _ = run(capsys, "sum", "dsum", "--u", "0", "--modulus", "7",
                       "--chi-index", "3", "--json")
    assert code == 0
    code, out, _ = run(capsys, "sum", "c3", "--v", "1", "--modulus", "7",
                       "--chi-index", "1", "--json")
    assert code == 0
    assert abs(json.loads(out)["re"] - 35.0) < 1e-6
    code, out, _ = run(capsys, "sum", "twisted", "--m", "1", "--n", "1", "--c", "3",
                       "--p", "3", "--psi-index", "1", "--json")
    assert code == 0
    assert abs(json.loads(out)["im"] - (-(3 ** 0.5))) < 1e-9
    code, out, _ = run(capsys, "sum", "c4", "--c2", "1", "--q2-tilde", "1", "--p", "11",
                       "--p-prime", "13", "--q1", "1", "--m-dprime", "1", "--M", "101",
                       "--h", "1", "--n", "3", "--r-prime", "3", "--ell", "5",
                       "--ell-prime", "7", "--json")
    assert code == 0
    json.loads(out)


def test_missing_flags_is_usage_error(capsys):
    code, _, err = run(capsys, "sum", "kloosterman", "--m", "1")
    assert code == 2
    assert "missing required flags" in err


def test_unknown_subcommand_exits_2(capsys):
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys, "sum", "nonsense")[0] == 2


def test_budget_exceeded_exits_3(capsys):
    code, _, err = run(capsys, "sum", "kloosterman", "--m", "1", "--n", "1",
                       "--c", "100", "--budget", "10")
    assert code == 3
    assert "budget" in err.lower()


@pytest.mark.parametrize("trials", [10**7 + 1, 10**40 - 1])
def test_reciprocity_trials_above_the_budget_exit_3_before_any_draw(capsys, monkeypatch, trials):
    from deltasum import suites

    def no_draws(seed):
        raise AssertionError("the generator was seeded")

    monkeypatch.setattr(suites, "Lcg", no_draws)
    code, out, err = run(capsys, "verify", "reciprocity", "--trials", str(trials))
    assert code == 3
    assert out == "" and "exceed the budget 10000000" in err


@pytest.mark.parametrize("trials", [0, -3])
def test_reciprocity_without_a_trial_exits_2_before_any_draw(capsys, monkeypatch, trials):
    from deltasum import suites

    def no_draws(seed):
        raise AssertionError("the generator was seeded")

    monkeypatch.setattr(suites, "Lcg", no_draws)
    code, out, err = run(capsys, "verify", "reciprocity", "--trials", str(trials))
    assert code == 2
    assert out == "" and f"trials must be at least 1, got {trials}" in err


def test_zero_budget_is_honoured(capsys):
    code, out, err = run(capsys, "sum", "kloosterman", "--m", "1", "--n", "1",
                         "--c", "100", "--budget", "0", "--no-cache")
    assert code == 3
    assert out == "" and "budget 0" in err


TWISTED_ARGS = ("twisted", "--m", "1", "--n", "1", "--c", "3", "--p", "3", "--psi-index", "1")
C4_ARGS = ("c4", "--c2", "1", "--q2-tilde", "1", "--p", "11", "--p-prime", "13", "--q1", "1",
           "--m-dprime", "1", "--M", "101", "--h", "1", "--n", "3", "--r-prime", "3",
           "--ell", "5", "--ell-prime", "7")


@pytest.mark.parametrize("argv", [TWISTED_ARGS, C4_ARGS])
def test_zero_budget_exits_3_for_the_other_budgeted_sums(capsys, argv):
    code, out, err = run(capsys, "sum", *argv, "--budget", "0", "--no-cache")
    assert code == 3, err
    assert out == "" and "budget" in err
    assert run(capsys, "sum", *argv, "--no-cache")[0] == 0


def test_c4_kloosterman_rows_above_the_budget_exit_3(capsys):
    # r' ell' = 50000 has phi = 20000: a row of 10**9 summands, though the
    # a-sum has only 150,000 terms.
    argv = ("sum", *C4_ARGS[:-6], "--r-prime", "10000", "--ell", "3", "--ell-prime", "5")
    code, out, err = run(capsys, *argv, "--no-cache")
    assert code == 3, err
    assert out == "" and "summands exceeds the budget 10000000" in err
    # --budget sets the row bound too: the rows of C4_ARGS hold 15 * 8 and
    # 21 * 12 = 252 summands, and a row of exactly the budget is accepted.
    assert run(capsys, "sum", *C4_ARGS, "--budget", "251", "--no-cache")[0] == 3
    assert run(capsys, "sum", *C4_ARGS, "--budget", "252", "--no-cache")[0] == 0


@pytest.mark.parametrize("argv", [("gauss", "--modulus", "7", "--chi-index", "1"),
                                  ("ramanujan", "--q", "6", "--n", "1"),
                                  ("dsum", "--u", "0", "--modulus", "7", "--chi-index", "3"),
                                  ("c3", "--v", "1", "--modulus", "7", "--chi-index", "1")])
def test_budget_rejected_by_sums_without_one(capsys, argv):
    for budget in ("0", "10000000"):
        code, out, err = run(capsys, "sum", *argv, "--budget", budget)
        assert code == 2
        assert out == "" and err == f"error: sum {argv[0]} does not take --budget\n"
    assert run(capsys, "sum", *argv)[0] == 0


# One valid argv per sum kind, and its stdout plain, with --json and with
# --csv, as printed before the kinds were dispatched through one table.
SUM_ARGS = {
    "kloosterman": ("--m", "2", "--n", "3", "--c", "101"),
    "twisted": ("--m", "1", "--n", "1", "--c", "15", "--p", "5", "--psi-index", "1"),
    "gauss": ("--modulus", "13", "--chi-index", "5"),
    "ramanujan": ("--q", "12", "--n", "4"),
    "dsum": ("--u", "3", "--modulus", "11", "--chi-index", "2"),
    "c3": ("--v", "2", "--modulus", "11", "--chi-index", "3"),
    "c4": C4_ARGS[1:],
}
SUM_STDOUT = {
    "kloosterman": (
        "value = 6.246297715240741 + 1.6167622796103842e-15i  (terms=100, est_error=2e-13)\n",
        '{"re": 6.246297715240741, "im": 1.6167622796103842e-15, "terms": 100, '
        '"est_error": 2e-13}\n',
        "6.246297715240741,1.6167622796103842e-15,100,2e-13\n"),
    "twisted": (
        "value = 1.1102230246251565e-16 + 1.9021130325903066i  (terms=8, est_error=3.2e-14)\n",
        '{"re": 1.1102230246251565e-16, "im": 1.9021130325903066, "terms": 8, '
        '"est_error": 3.2e-14}\n',
        "1.1102230246251565e-16,1.9021130325903066,8,3.2e-14\n"),
    "gauss": (
        "value = 3.6028636315959908 + -0.13918926726922073i  (terms=12, "
        "est_error=5.2000000000000006e-14)\n",
        '{"re": 3.6028636315959908, "im": -0.13918926726922073, "terms": 12, '
        '"est_error": 5.2000000000000006e-14}\n',
        "3.6028636315959908,-0.13918926726922073,12,5.2000000000000006e-14\n"),
    "ramanujan": (
        "-2\n",
        '{"value": -2}\n',
        "-2\n"),
    "dsum": (
        "value = -1.403729412986023 + 1.6199901007675586i  (terms=9, "
        "est_error=3.6000000000000004e-14)\n",
        '{"re": -1.403729412986023, "im": 1.6199901007675586, "terms": 9, '
        '"est_error": 3.6000000000000004e-14}\n',
        "-1.403729412986023,1.6199901007675586,9,3.6000000000000004e-14\n"),
    "c3": (
        "value = -7.600813061875581 + -10.46162167924669i  (terms=99, "
        "est_error=3.9600000000000003e-13)\n",
        '{"re": -7.600813061875581, "im": -10.46162167924669, "terms": 99, '
        '"est_error": 3.9600000000000003e-13}\n',
        "-7.600813061875581,-10.46162167924669,99,3.9600000000000003e-13\n"),
    "c4": (
        "value = -65.46642919516698 + 82.09230565914315i  (terms=10080, est_error=8.064e-11)\n",
        '{"re": -65.46642919516698, "im": 82.09230565914315, "terms": 10080, '
        '"est_error": 8.064e-11}\n',
        "-65.46642919516698,82.09230565914315,10080,8.064e-11\n"),
}
# Every flag of `sum`, and the ones each kind reads.
SUM_FLAGS = ("--m", "--n", "--c", "--q", "--u", "--v", "--p", "--h", "--modulus",
             "--chi-index", "--psi-index", "--c2", "--q2-tilde", "--p-prime", "--q1",
             "--m-dprime", "--M", "--r-prime", "--ell", "--ell-prime", "--budget")
BUDGETED = ("kloosterman", "twisted", "c4")


def _read_flags(kind):
    return set(SUM_ARGS[kind][::2]) | ({"--budget"} if kind in BUDGETED else set())


@pytest.mark.parametrize("kind", SUM_STDOUT)
def test_sum_stdout_pinned(capsys, kind):
    for fmt, pinned in zip(((), ("--json",), ("--csv",)), SUM_STDOUT[kind]):
        code, out, err = run(capsys, "sum", kind, *SUM_ARGS[kind], *fmt, "--no-cache")
        assert code == 0, err
        assert out == pinned, fmt


@pytest.mark.parametrize("kind", SUM_ARGS)
def test_sum_rejects_every_flag_its_kind_does_not_read(capsys, kind):
    unread = [flag for flag in SUM_FLAGS if flag not in _read_flags(kind)]
    assert unread
    for flag in unread:
        code, out, err = run(capsys, "sum", kind, *SUM_ARGS[kind], flag, "5")
        assert code == 2, flag
        assert out == "" and err == f"error: sum {kind} does not take {flag}\n"
    code, _, err = run(capsys, "sum", kind, *SUM_ARGS[kind], unread[-1], "5", unread[0], "5")
    prefix = f"error: sum {kind} does not take "
    assert code == 2 and err.startswith(prefix)
    assert set(err[len(prefix):].rstrip("\n").split(", ")) == {unread[0], unread[-1]}
    assert not os.path.exists(os.environ["DELTASUM_CACHE"])  # nothing was cached


@pytest.mark.parametrize("kind", SUM_ARGS)
def test_sum_requires_every_flag_its_kind_reads(capsys, kind):
    argv = SUM_ARGS[kind]
    for i in range(0, len(argv), 2):
        code, out, err = run(capsys, "sum", kind, *argv[:i], *argv[i + 2:])
        assert code == 2, argv[i]
        assert out == "" and err == f"error: missing required flags: {argv[i]}\n"


def test_domain_error_exits_2(capsys):
    code, _, _ = run(capsys, "sum", "gauss", "--modulus", "8", "--chi-index", "1")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("sum", "kloosterman", "--m", "1", "--n", "1", "--c", "0"),
    ("sum", "ramanujan", "--q", "0", "--n", "1"),
    ("bessel", "--nu", "300", "--x", "1.0"),
    ("bessel", "--nu", "2", "--x", "nan"),
    ("integral", "--preset", "toy", "--c", "0"),
    ("integral", "--preset", "toy", "--tol", "0"),
    ("integral", "--preset", "toy", "--tol", "nan"),
    ("integral", "--preset", "toy", "--N", "inf"),
    ("integral", "--preset", "toy", "--c", "inf"),
    ("integral", "--preset", "toy", "--theta", "nan"),
    ("integral", "--preset", "toy", "--theta", "1e308"),  # M**(-4 theta) underflows to 0
    ("integral", "--preset", "toy", "--M", "9" * 310),  # no float holds it
    ("integral", "--preset", "toy", "--n", "1" + "0" * 309),
    ("integral", "--preset", "toy", "--n", "1" + "0" * 308),  # n fits, n * ell does not
])
def test_invalid_value_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv, "--no-cache")
    assert code == 2, err
    assert out == "" and err.startswith("error: ")


@pytest.mark.parametrize("line", ["form: 1/2 + 1/2*xP + 0*xL + 9*zz",
                                  "form: 1/0 + 1*xP",
                                  "st: 1*xP + 0*xL + 0*th <= 1/0",
                                  "bound: 1*xP"])
def test_malformed_problem_line_exits_2(capsys, tmp_path, line):
    problem = tmp_path / "bad.prob"
    problem.write_text(line + "\n")
    code, out, err = run(capsys, "optimize", "--problem", str(problem), "--no-cache")
    assert code == 2, err
    assert out == "" and "line 1" in err


def test_size_limit_still_exits_3(capsys):
    code, _, err = run(capsys, "sum", "kloosterman", "--m", "1", "--n", "1",
                       "--c", str(2**31 + 1), "--budget", str(2**32), "--no-cache")
    assert code == 3
    assert "2**31" in err


@pytest.mark.parametrize("argv", [("--c", "1e-300"), ("--N", "1e308", "--c", "1e-300")])
def test_integral_initial_grid_above_the_panel_limit_exits_3(capsys, argv):
    code, out, err = run(capsys, "integral", "--preset", "toy", *argv, "--no-cache")
    assert code == 3
    assert out == "" and "131072 panels in one level" in err


def test_integral_weight_above_the_bessel_orders_names_k(capsys):
    code, out, err = run(capsys, "integral", "--preset", "toy", "--k", "203", "--no-cache")
    assert code == 2
    assert out == "" and err == ("error: the weight k must be at most 201, since the kernel "
                                 "J_(k-1) has order at most 200; got 203\n")
    assert run(capsys, "integral", "--preset", "toy", "--k", "199", "--no-cache")[0] == 0


def test_integral_names_the_product_that_overflowed(capsys):
    code, out, err = run(capsys, "integral", "--preset", "toy", "--N", "1e308", "--no-cache")
    assert code == 3
    assert out == "" and "131072 panels in one level (the initial grid): " in err
    assert "N*ell/(c*p*M) overflowed to inf" in err


@pytest.mark.parametrize("flags, name", [(("--problem",), "."),  # a directory
                                         (("--problem",), "latin1.txt"),
                                         (("--paper", "--config"), "latin1.txt"),
                                         (("--problem",), "missing.prob")])
def test_unreadable_input_file_exits_2(capsys, tmp_path, flags, name):
    (tmp_path / "latin1.txt").write_bytes(b"# caf\xe9\n")
    path = str(tmp_path / name)
    code, out, err = run(capsys, "optimize", *flags, path, "--no-cache")
    assert code == 2
    assert out == "" and err.startswith("error: ") and path in err


@pytest.mark.parametrize("argv", [("optimize", "--paper"),
                                  ("bessel", "--nu", "2", "--x", "1.0"),
                                  ("integral", "--preset", "toy", "--c", "200.0")])
def test_csv_rejected_where_unsupported(capsys, argv):
    code, out, err = run(capsys, *argv, "--csv")
    assert code == 2
    assert out == "" and "--csv" in err
    assert not os.path.exists(os.environ["DELTASUM_CACHE"])


@pytest.mark.parametrize("argv", [("sum", "ramanujan", "--q", "6", "--n", "1"),
                                  ("verify", "exponent", "--grid-preset", "smoke")])
def test_json_and_csv_together_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv, "--json", "--csv")
    assert code == 2
    assert out == "" and "--csv" in err and "--json" in err


def test_verify_has_no_no_cache_flag(capsys):
    code, out, err = run(capsys, "verify", "exponent", "--no-cache")
    assert code == 2
    assert out == "" and "--no-cache" in err


def test_bump_window_rejects_theta(capsys):
    code, out, err = run(capsys, "integral", "--window", "bump", "--c", "8", "--theta", "0.1")
    assert code == 2
    assert out == "" and err == "error: integral --window bump does not take --theta\n"
    assert not os.path.exists(os.environ["DELTASUM_CACHE"])
    assert run(capsys, "integral", "--window", "bump", "--c", "8")[0] == 0
    assert run(capsys, "integral", "--window", "plateau", "--c", "8", "--theta", "0.1")[0] == 0


def test_optimize_paper_exact(capsys):
    code, out, _ = run(capsys, "optimize", "--paper", "--exact")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "theta = 1/154"
    assert lines[1] == "exponent = 115/154"
    assert "xP = 20/77" in lines
    assert "xL = 9/77" in lines


def test_optimize_staged_and_json(capsys):
    code, out, _ = run(capsys, "optimize", "--paper", "--staged", "--exact", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["theta"] == "1/154"
    assert payload["exponent"] == "115/154"


def test_optimize_problem_file(capsys, tmp_path):
    problem = tmp_path / "bound.prob"
    problem.write_text(
        "form: 1 - 1*xP + 0*xL + 0*th\n"
        "form: 0 + 1*xP + 0*xL + 0*th\n"
        "form: 0 + 1*xP + 0*xL + 0*th\n"
        "form: 0 + 1*xP + 0*xL + 0*th\n"
        "form: 0 + 1*xP + 0*xL + 0*th\n"
        "form: 0 + 1*xP + 0*xL + 0*th\n"
        "st: 0*xP + 0*xL + 1*th <= 0\n"
        "st: 0*xP + 1*xL + 0*th <= 0\n"
        "st: 0*xP + -1*xL + 0*th <= 0\n"
        "st: 0*xP + 0*xL + -1*th <= 0\n")
    code, out, _ = run(capsys, "optimize", "--problem", str(problem), "--exact")
    assert code == 0
    assert "exponent = 1/2" in out


def test_verify_failure_exits_1(capsys, monkeypatch):
    import deltasum.suites as suites
    from deltasum.scan import ScanReport

    def failing(**_):
        return ScanReport("weil", {}, 1, 9.9, (1, 1, 1), False, 0)

    monkeypatch.setitem(suites.SUITES, "weil", failing)
    code, out, _ = run(capsys, "verify", "weil")
    assert code == 1
    assert "passed=false" in out


def test_verify_reciprocity_exit_zero(capsys):
    code, out, err = run(capsys, "verify", "reciprocity", "--trials", "10", "--seed", "1")
    assert code == 0
    assert "passed=true" in out
    assert "runtime_ms=" in err


def test_verify_json_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", "c3", "--grid-preset", "smoke", "--json")
    code2, out2, _ = run(capsys, "verify", "c3", "--grid-preset", "smoke", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["passed"] is True


# verify --csv stdout: the first five ledger cells, each quoted, with inner
# quotes doubled (bessel-decay's witness holds a string).
VERIFY_CSV_STDOUT = {
    ("exponent",): '"exponent","6","0.0","null","true"\n',
    ("c3", "--grid-preset", "smoke"): '"c3","42","0.6666666666666666","[5, 2, 4]","true"\n',
    ("bessel-decay", "--grid-preset", "smoke"):
        '"bessel-decay","122","7.040008587492279e-06","[""trivial-bound"", 0.5]","true"\n',
}


@pytest.mark.parametrize("argv", VERIFY_CSV_STDOUT)
def test_verify_csv_stdout_pinned(capsys, argv):
    code, out, _ = run(capsys, "verify", *argv, "--csv")
    assert (code, out) == (0, VERIFY_CSV_STDOUT[argv])


def test_verify_appends_ledger(capsys, tmp_path):
    cache = os.environ["DELTASUM_CACHE"]
    run(capsys, "verify", "exponent")
    ledger = os.path.join(cache, "ledger.csv")
    assert os.path.exists(ledger)
    with open(ledger, encoding="utf-8") as fh:
        content = fh.read()
    assert "exponent" in content


def test_bessel_cli(capsys):
    code, out, _ = run(capsys, "bessel", "--nu", "2", "--x", "1.0", "--json")
    assert code == 0
    assert abs(json.loads(out)["value"] - 0.11490348493190047) < 1e-12


def test_integral_cli(capsys):
    code, out, _ = run(capsys, "integral", "--preset", "toy", "--c", "200.0", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["abs"] <= 1e-15


def test_integral_json_pinned_and_text_plain(capsys):
    code, out, _ = run(capsys, "integral", "--preset", "toy", "--c", "120", "--json")
    assert code == 0
    assert out == ('{"re": 1.7995707561649027e-35, "im": -1.9322522635696813e-36, '
                   '"abs": 1.8099146097384323e-35, "err_estimate": 1e-12}\n')
    code, out, _ = run(capsys, "integral", "--preset", "toy", "--c", "120")
    assert code == 0
    assert out == ("integral = 1.7995707561649027e-35 + -1.9322522635696813e-36i  "
                   "(abs=1.8099146097384323e-35, err=1e-12)\n")
    assert "np." not in out


def test_cache_round_trip(capsys):
    args = ("sum", "kloosterman", "--m", "2", "--n", "3", "--c", "101", "--json")
    code1, out1, _ = run(capsys, *args)
    cache_dir = os.environ["DELTASUM_CACHE"]
    entries = [f for f in os.listdir(cache_dir) if f.endswith(".json")]
    assert len(entries) == 1
    code2, out2, _ = run(capsys, *args)
    assert (code1, out1) == (code2, out2)
    # --no-cache must not create new entries
    code3, out3, _ = run(capsys, *args[:-1], "--json", "--no-cache")
    assert out3 == out1
    assert len([f for f in os.listdir(cache_dir) if f.endswith(".json")]) == 1


def test_cache_key_distinguishes_flags(capsys):
    run(capsys, "sum", "kloosterman", "--m", "2", "--n", "3", "--c", "7", "--json")
    run(capsys, "sum", "kloosterman", "--m", "2", "--n", "4", "--c", "7", "--json")
    cache_dir = os.environ["DELTASUM_CACHE"]
    assert len([f for f in os.listdir(cache_dir) if f.endswith(".json")]) == 2


def test_cache_key_covers_source_digest(capsys, monkeypatch):
    from deltasum import cli

    args = ("sum", "kloosterman", "--m", "2", "--n", "3", "--c", "11", "--json")
    _, fresh, _ = run(capsys, *args)
    cache_dir = os.environ["DELTASUM_CACHE"]
    (entry,) = [f for f in os.listdir(cache_dir) if f.endswith(".json")]
    with open(os.path.join(cache_dir, entry), "w", encoding="utf-8") as fh:
        json.dump({"stdout": "stale\n", "exit_code": 0}, fh)
    # unchanged sources: the planted entry is served
    assert run(capsys, *args)[1] == "stale\n"
    # changed sources: a miss, recomputed and stored under a new key
    monkeypatch.setattr(cli, "_source_digest", lambda: "0" * 64)
    assert run(capsys, *args)[1] == fresh
    assert len([f for f in os.listdir(cache_dir) if f.endswith(".json")]) == 2


def test_cache_key_covers_numpy_and_python_versions(monkeypatch):
    from deltasum import cli

    args = cli.build_parser().parse_args(["sum", "kloosterman", "--m", "2", "--n", "3",
                                          "--c", "11", "--json"])
    key = cli._cache_key(args)
    for module, name in ((cli.np, "__version__"), (cli.sys, "version")):
        monkeypatch.setattr(module, name, getattr(module, name) + "+upgraded")
        assert cli._cache_key(args) != key, name
        monkeypatch.undo()
        assert cli._cache_key(args) == key


def test_config_file(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("DELTASUM_CACHE")
    cfg_cache = tmp_path / "cfg-cache"
    cfg = tmp_path / "deltasum.conf"
    cfg.write_text(f"cache_dir = {cfg_cache}\ndefault_tolerance_scale = 1.0\n")
    code, _, _ = run(capsys, "sum", "kloosterman", "--m", "1", "--n", "1", "--c", "5",
                     "--config", str(cfg))
    assert code == 0
    assert cfg_cache.exists()


def test_config_env_overrides_file(capsys, tmp_path, monkeypatch):
    env_cache = tmp_path / "env-cache"
    monkeypatch.setenv("DELTASUM_CACHE", str(env_cache))
    cfg = tmp_path / "deltasum.conf"
    cfg.write_text(f"cache_dir = {tmp_path / 'file-cache'}\n")
    run(capsys, "sum", "kloosterman", "--m", "1", "--n", "1", "--c", "5",
        "--config", str(cfg))
    assert env_cache.exists()
    assert not (tmp_path / "file-cache").exists()


def test_bad_config_rejected(capsys, tmp_path):
    cfg = tmp_path / "bad.conf"
    for line in ("nope = 1", "workers = 2", "seed = 7"):  # nothing reads workers or seed
        cfg.write_text(line + "\n")
        code, _, err = run(capsys, "sum", "kloosterman", "--m", "1", "--n", "1", "--c", "5",
                           "--config", str(cfg))
        assert code == 2
        assert "unknown config key" in err and repr(line.split()[0]) in err


def test_unparsable_config_value_exits_2(capsys, tmp_path):
    cfg = tmp_path / "bad.conf"
    cfg.write_text("# scale\ndefault_tolerance_scale = abc\n")
    code, out, err = run(capsys, "verify", "c1", "--grid-preset", "smoke",
                         "--config", str(cfg))
    assert code == 2
    assert out == "" and f"{cfg}:2:" in err and "'abc'" in err


@pytest.mark.parametrize("scale", ["-1000", "0", "-0", "nan", "inf"])
def test_bad_tolerance_scale_flag_exits_2(capsys, scale):
    code, out, err = run(capsys, "verify", "c1", "--grid-preset", "smoke",
                         "--tolerance-scale", scale)
    assert code == 2
    assert out == "" and err.startswith("error: ") and "tolerance_scale" in err


def test_bad_config_tolerance_scale_exits_2(capsys, tmp_path):
    cfg = tmp_path / "deltasum.conf"
    cfg.write_text("default_tolerance_scale = -5\n")
    code, out, err = run(capsys, "verify", "c1", "--grid-preset", "smoke",
                         "--config", str(cfg))
    assert code == 2
    assert out == "" and "tolerance_scale" in err and "-5" in err


@pytest.mark.parametrize("suite, flag, value", [("weil", "--trials", "3"),
                                                ("exponent", "--seed", "9"),
                                                ("weil", "--tolerance-scale", "5")])
def test_verify_rejects_flag_the_suite_does_not_take(capsys, suite, flag, value):
    code, out, err = run(capsys, "verify", suite, "--grid-preset", "smoke", flag, value)
    assert code == 2, err
    assert out == "" and err.startswith("error: ") and flag in err


@pytest.mark.parametrize("argv", [("verify", "weil", "--workers", "2"),
                                  ("verify", "weil", "--budget", "1"),
                                  ("sum", "ramanujan", "--q", "6", "--n", "1",
                                   "--workers", "2")])
def test_removed_flags_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and argv[-2] in err


@pytest.mark.parametrize("suite", ["weil", "c3", "c1"])
def test_config_tolerance_scale_reaches_only_suites_that_take_it(capsys, tmp_path, suite):
    cfg = tmp_path / "deltasum.conf"
    cfg.write_text("default_tolerance_scale = 2\n")
    code, out, err = run(capsys, "verify", suite, "--grid-preset", "smoke", "--json",
                         "--config", str(cfg))
    assert code == 0, err
    # weil takes no tolerance scale and runs as without the config; c3 and c1 run at 2
    same_as = () if suite == "weil" else ("--tolerance-scale", "2")
    assert out == run(capsys, "verify", suite, "--grid-preset", "smoke", "--json", *same_as)[1]
    if suite == "c1":  # c1's smoke report shows the scale in its worst deviation
        assert out != run(capsys, "verify", suite, "--grid-preset", "smoke", "--json")[1]


def test_byte_identical_stdout_repeated_runs(capsys):
    outs = set()
    for _ in range(3):
        _, out, _ = run(capsys, "verify", "weil", "--grid-preset", "smoke",
                        "--seed", "5", "--json")
        outs.add(out)
    assert len(outs) == 1


def test_parser_is_built_once_per_process():
    assert build_parser() is build_parser()


REUSE_SEQUENCE = [
    (("sum", "kloosterman", "--m", "1", "--n", "1", "--c", "100", "--budget", "10"), 3),
    (("sum", "kloosterman", "--m", "1", "--n", "1", "--c", "100"), 0),  # default budget
    (("integral", "--c", "9", "--json"), 0),
    (("integral", "--json"), 0),  # the toy c = 29, not the 9 parsed before
    (("optimize", "--paper", "--problem", "x.prob"), 2),  # usage error
    (("--version",), 0),
    (("optimize", "--paper", "--exact"), 0),
    (("verify", "exponent", "--grid-preset", "smoke", "--json"), 0),
]


def test_reused_parser_matches_a_fresh_parser_per_call(capsys, monkeypatch, tmp_path):
    parser = build_parser()
    results = {}
    for mode in ("reused", "fresh"):
        monkeypatch.setenv("DELTASUM_CACHE", str(tmp_path / mode))
        if mode == "fresh":
            monkeypatch.setattr(cli, "build_parser", build_parser.__wrapped__)
        results[mode] = [run(capsys, *argv)[:2] for argv, _ in REUSE_SEQUENCE]
    assert build_parser() is parser
    assert results["reused"] == results["fresh"]
    assert [code for code, _ in results["reused"]] == [code for _, code in REUSE_SEQUENCE]
    (_, c9), (_, c29) = results["reused"][2:4]
    assert c9 != c29
    assert c29 == run(capsys, "integral", "--c", "29", "--json", "--no-cache")[1]


def test_help_of_the_cached_parser_reads_columns_when_printed(capsys, monkeypatch):
    build_parser()
    outs = {}
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        code, outs[columns], _ = run(capsys, "sum", "--help")
        assert code == 0
    assert max(map(len, outs["40"].splitlines())) < max(map(len, outs["200"].splitlines()))
    assert len(outs["40"].splitlines()) > len(outs["200"].splitlines())
