import json
import os

import pytest

from deltasum.cli import main


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


def test_zero_budget_is_honoured(capsys):
    code, out, err = run(capsys, "sum", "kloosterman", "--m", "1", "--n", "1",
                         "--c", "100", "--budget", "0", "--no-cache")
    assert code == 3
    assert out == "" and "budget 0" in err


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


@pytest.mark.parametrize("argv", [("optimize", "--paper"),
                                  ("bessel", "--nu", "2", "--x", "1.0"),
                                  ("integral", "--preset", "toy", "--c", "200.0")])
def test_csv_rejected_where_unsupported(capsys, argv):
    code, out, err = run(capsys, *argv, "--csv")
    assert code == 2
    assert out == "" and "--csv" in err
    assert not os.path.exists(os.environ["DELTASUM_CACHE"])


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
