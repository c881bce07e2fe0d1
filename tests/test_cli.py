"""CLI subcommands: reports, determinism, exit codes, file round trips."""

import argparse
import json

import numpy as np
import pytest

from qsr import decoupling
from qsr.cli import _CSV_FIELDS, _build_parser, main
from qsr.qstate import state_from_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    lines = [json.loads(line) for line in out.strip().splitlines()]
    return lines[0] if len(lines) == 1 else lines


class TestRates:
    @pytest.mark.parametrize("preset,expected", [
        ("bell-CA", (0.0, 1.0, 0.0)),
        ("bell-CR", (1.0, 0.0, 0.0)),
        ("bell-CB", (0.0, 0.0, 1.0)),
        ("product", (0.0, 0.0, 0.0)),
    ])
    def test_preset_rates(self, capsys, preset, expected):
        rec = run_json(capsys, "rates", "--state", preset)
        got = (rec["results"]["qubits"], rec["results"]["ebits_consumed"],
               rec["results"]["ebits_distilled"])
        np.testing.assert_allclose(got, expected, atol=1e-9)

    def test_results_reproduce_bit_exactly(self, capsys):
        a = run_json(capsys, "rates", "--state", "random", "--seed", "9")
        b = run_json(capsys, "rates", "--state", "random", "--seed", "9")
        assert a["results"] == b["results"]
        assert a["inputs"]["state_digest"] == b["inputs"]["state_digest"]


class TestSampleState:
    def test_deterministic_bytes(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["sample-state", "--dims", "C=2,A=2,B=2,R=2", "--seed", "7", "--out", str(f1)]) == 0
        assert main(["sample-state", "--dims", "C=2,A=2,B=2,R=2", "--seed", "7", "--out", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_roundtrip_and_norm(self, capsys, tmp_path):
        f = tmp_path / "s.json"
        assert main(["sample-state", "--dims", "C=2,A=3", "--seed", "3", "--out", str(f)]) == 0
        state = state_from_json(f.read_text())
        assert state.layout.dims == (2, 3)
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12
        # Re-serializing reproduces the file byte for byte.
        from qsr.qstate import state_to_json

        assert state_to_json(state) == f.read_text()

    def test_state_file_feeds_other_commands(self, capsys, tmp_path):
        f = tmp_path / "s.json"
        main(["sample-state", "--dims", "C=2,A=2,B=2,R=2", "--seed", "5", "--out", str(f)])
        rec = run_json(capsys, "rates", "--state", str(f))
        assert "qubits" in rec["results"]


class TestDecouple:
    def test_maximally_mixed_preset_passes(self, capsys):
        rec = run_json(capsys, "decouple", "--partition", "2,2,1", "--dim-c", "4",
                       "--omega", "pi", "--psi", "pi", "--samples", "150", "--seed", "1")
        res = rec["results"]
        assert res["checks"][0]["mean_square"] < 1e-18
        assert res["checks"][0]["passed"] and res["checks"][1]["passed"]
        assert res["accepted"] and res["best_residuals"]["eps1"] < 1e-10

    def test_random_instance(self, capsys):
        rec = run_json(capsys, "decouple", "--partition", "2,2,2", "--samples", "150", "--seed", "2")
        res = rec["results"]
        assert res["alpha"] > 0 and res["beta"] > 0
        assert res["checks"][0]["passed"]


class TestProtocol:
    def test_bell_ca_exact_case(self, capsys):
        rec = run_json(capsys, "protocol", "--state", "bell-CA", "--partition", "1,2,1", "--seed", "3")
        res = rec["results"]
        assert res["distance_to_target"] <= 1e-6
        assert (res["qubits_sent"], res["ebits_consumed"], res["ebits_distilled"]) == (0, 1, 0)

    def test_reverse_direction(self, capsys):
        rec = run_json(capsys, "protocol", "--state", "bell-CA", "--partition", "1,2,1",
                       "--seed", "3", "--reverse")
        res = rec["results"]
        assert res["direction"] == "reverse"
        assert res["distance_to_target"] <= 1e-6
        assert (res["qubits_sent"], res["ebits_consumed"], res["ebits_distilled"]) == (0, 0, 1)

    def test_reproducible_results(self, capsys):
        a = run_json(capsys, "protocol", "--state", "random", "--partition", "1,2,1", "--seed", "11")
        b = run_json(capsys, "protocol", "--state", "random", "--partition", "1,2,1", "--seed", "11")
        assert a["results"] == b["results"]

    def test_state_file_with_multi_label_roles(self, capsys, tmp_path):
        f = tmp_path / "multi.json"
        main(["sample-state", "--dims", "q0=2,q1=2,a=2,b=2,r=2", "--seed", "4", "--out", str(f)])
        rec = run_json(capsys, "protocol", "--state", str(f), "--roles", "C=q0+q1,A=a,B=b,R=r",
                       "--partition", "1,2,2", "--seed", "5")
        res = rec["results"]
        assert res["distance_to_target"] <= min(2.0, res["measured_bound"]) + 1e-8
        assert res["ebits_consumed"] == 1.0  # log2 d2 with d2 = 2

    def test_roles_exchanging_equal_dimensions_run_exactly(self, capsys):
        # A and B of the random preset have one dimension, so only the roles tell the swapped
        # state from the given one; with d1 = d2 = 1 both halves are U^H (x) I and the run is exact.
        rec = run_json(capsys, "protocol", "--state", "random", "--partition", "1,1,2", "--seed", "9",
                       "--roles", "C=C,A=B,B=A,R=R")
        assert rec["results"]["distance_to_target"] <= 1e-12


class TestIid:
    def test_product_preset(self, capsys):
        rec = run_json(capsys, "iid", "--state", "product", "--n", "3", "--seed", "1")
        res = rec["results"]
        assert res["per_copy_qubits"] == 0 and res["distance_to_target"] <= 1e-6

    def test_delta_on_a_type_class_boundary(self, capsys):
        # This delta puts a type class exactly on the window edge, where a
        # running sum over copies and the per-type sum round differently.
        rec = run_json(capsys, "iid", "--state", "tilted-CR", "--n", "7",
                       "--delta", "2.127125289449806")
        res = rec["results"]
        assert res["typical_rank"] == res["d1"] * res["d2"] * res["d3"] - res["padding"] == 128

    def test_trivial_kept_factors_run_at_the_default_guard(self, capsys):
        # d1 = d2 = 1: both halves are U^H (x) I, so no 4096 x 4096 factor Z is
        # held and the default guard admits the run.
        rec = run_json(capsys, "iid", "--state", "bell-CA", "--n", "6", "--delta", "0.2")
        res = rec["results"]
        assert (res["d1"], res["d2"], res["d3"]) == (1, 1, 64)
        assert res["distance_to_target"] <= res["measured_bound"]

    def test_non_flat_preset_runs_to_completion(self, capsys):
        res = run_json(capsys, "iid", "--state", "tilted-CR", "--n", "8", "--delta", "0.3")["results"]
        assert res["distance_to_target"] <= res["measured_bound"]

    @pytest.mark.parametrize("delta,t", [("1e308", "2"), ("0.5", "1e308")])
    def test_overflowing_window_gives_trivial_ebit_registers(self, capsys, delta, t):
        # 3 t delta overflows to inf, so both ebit targets are -inf.
        rec = run_json(capsys, "iid", "--state", "random", "--n", "2", "--delta", delta, "--t", t)
        res = rec["results"]
        assert (res["d1"], res["d2"]) == (1, 1)
        assert all(np.isfinite(v) for v in res.values() if isinstance(v, float))

    def test_sweep_emits_csv(self, capsys):
        code, out, err = run_cli(capsys, "iid", "--state", "bell-CR", "--sweep", "2..3",
                                 "--delta", "0.08", "--t", "1.5", "--seed", "1")
        assert code == 0, err
        lines = out.strip().splitlines()
        header = lines[0].split(",")
        assert header[0] == "n" and "per_copy_qubits" in header
        assert len(lines) == 3  # header + one row per n
        assert lines[1].startswith("2,") and lines[2].startswith("3,")
        for line in lines[1:]:
            cells = line.split(",")
            assert len(cells) == len(header)
            for cell in cells:  # plain numbers, not numpy reprs such as np.float64(...)
                try:
                    int(cell)
                except ValueError:
                    float(cell)


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        code, _, err = run_cli(capsys, "protocol", "--state", "bell-CA", "--partition", "nope")
        assert code == 1 and "partition" in err

    def test_unknown_state_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "rates", "--state", "no-such-preset")
        assert code == 1

    def test_failed_numerical_check_is_three(self, capsys, monkeypatch):
        # A residual beyond the trace-distance range [0, 2] is a numerical fault: exit 3, no traceback.
        kernel = decoupling._residuals
        monkeypatch.setattr(decoupling, "_residuals", lambda *args: kernel(*args) + 2.5)
        code, out, err = run_cli(capsys, "protocol", "--state", "bell-CA", "--partition", "1,2,1", "--seed", "3")
        assert code == 3 and out == ""
        assert err.startswith("numerical check failed: residual") and err.count("\n") == 1

    def test_guard_refusal_is_two(self, capsys):
        code, _, err = run_cli(capsys, "iid", "--state", "product", "--n", "8", "--seed", "1")
        assert code == 2 and "guard" in err

    def test_axis_limit_refusal_is_two(self, capsys, tmp_path):
        state = str(tmp_path / "two.json")
        assert run_cli(capsys, "sample-state", "--dims", "C=2,A=1,B=1,R=1", "--out", state)[0] == 0
        code, out, err = run_cli(capsys, "iid", "--state", state, "--n", "17", "--delta", "0.5")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "axes" in err and "Traceback" not in err

    def test_protocol_preflight_refusal_is_two(self, capsys):
        # phi^(x)7 has 16384 entries, but the encoder's pair state would have
        # 2^24: refused from the single-copy spectra, before phi^(x)7 exists.
        code, out, err = run_cli(capsys, "iid", "--state", "bell-CA", "--n", "7", "--delta", "0.05")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "guard" in err and "Traceback" not in err

    def test_empty_typical_set_is_two(self, capsys):
        # At the default delta = 0.1 no string of tilted-CR's C^(x)3 is typical.
        code, out, err = run_cli(capsys, "iid", "--state", "tilted-CR", "--n", "3")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "empty typical set" in err and "Traceback" not in err

    def test_refused_sweep_keeps_the_finished_rows(self, capsys):
        # phi^(x)4 of bell-CR has 256 entries, above a guard of 100: n = 1..3 run, n = 4 is refused.
        argv = ("iid", "--state", "bell-CR", "--delta", "0.05", "--guard", "100")
        code, out, err = run_cli(capsys, *argv, "--sweep", "1..4")
        assert code == 2 and err.count("\n") == 1 and "guard" in err
        lines = out.splitlines()
        assert len(lines) == 4 and lines[0].startswith("n,")
        assert [line.split(",")[0] for line in lines[1:]] == ["1", "2", "3"]
        assert run_cli(capsys, *argv, "--sweep", "1..3") == (0, out, "")

    def test_endless_sweep_is_refused_at_its_first_oversized_n(self, capsys):
        # n = 17 is past the guard and the axis limit; the sweep's n values are taken one at a time,
        # so the two billion that follow are never listed.
        code, out, err = run_cli(capsys, "iid", "--state", "bell-CR", "--sweep", "17..2000000000", "--delta", "0.05")
        assert code == 2 and out == ",".join(_CSV_FIELDS) + "\n"
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_infeasible_allocation_is_two(self, capsys):
        code, _, err = run_cli(capsys, "iid", "--state", "tilted-CR", "--n", "3",
                               "--delta", "0.4", "--seed", "1")
        assert code == 2 and "eta" in err

    @pytest.mark.parametrize("argv,flag", [
        (("decouple", "--partition", "2,2,2", "--samples", "50"), "--samples"),
        (("decouple", "--partition", "2,2,2", "--search-budget", "0"), "--search-budget"),
        (("protocol", "--state", "bell-CA", "--partition", "1,2,1", "--search-budget", "0"),
         "--search-budget"),
        (("decouple", "--partition", "2,2,2", "--omega", "foo"), "--omega"),
        (("iid", "--state", "bell-CR", "--n", "2", "--guard", "-5"), "--guard: must be >= 1, got -5"),
        (("iid", "--state", "bell-CR", "--n", "2", "--guard", "0"), "--guard: must be >= 1, got 0"),
    ])
    def test_out_of_range_counts_are_usage_errors(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and flag in err and "Traceback" not in err

    @pytest.mark.parametrize("argv,text", [
        (("--n", "0"), "n must be >= 1"),
        (("--n", "2", "--delta", "-1"), "delta must be > 0"),
        (("--n", "2", "--delta", "nan"), "delta must be > 0"),
        (("--n", "2", "--t", "1"), "t must be > 1"),
        (("--n", "2", "--t", "inf"), "t must be > 1"),
        (("--sweep", "5..2"), "--sweep"),
        (("--sweep", "1..x"), "--sweep"),
        (("--sweep", "0..1"), "n must be >= 1"),
        (("--sweep", ""), "--sweep"),
        (("--n", "3", "--sweep", "2..3"), "not allowed with"),
        ((), "one of the arguments --n --sweep is required"),
    ])
    def test_iid_domain_errors_are_usage_errors(self, capsys, argv, text):
        code, out, err = run_cli(capsys, "iid", "--state", "bell-CR", *argv)
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and text in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        pytest.param(("sample-state", "--dims", "C=100000,A=100000"), id="sample-state"),
        pytest.param(("decouple", "--partition", "1,1,100000", "--dim-c", "100000", "--samples", "100"),
                     id="decouple"),
        pytest.param(("protocol", "--state", "{big}", "--partition", "4096,1,1"), id="protocol"),
    ])
    def test_size_guard_refuses_before_allocating(self, capsys, tmp_path, argv):
        # Each of these asks for far more than the guard (74.5 GiB, 596 GiB
        # and 1 TiB); each must be refused before any large array exists.
        big = tmp_path / "big.json"
        assert main(["sample-state", "--dims", "C=4096,A=1,B=1,R=1", "--out", str(big)]) == 0
        code, out, err = run_cli(capsys, *(str(big) if a == "{big}" else a for a in argv))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "guard" in err and "Traceback" not in err

    def test_count_too_long_to_print_is_refused(self, capsys):
        # The operand would have (2 * 10^2199 * 2)^2 entries, a count of 4,400 digits.
        big = 10**2199
        code, out, err = run_cli(capsys, "decouple", "--dim-c", str(2 * big), "--partition", f"2,{big},1")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "needs at least 2^14613 entries" in err

    def test_thousand_level_register_runs(self, capsys, tmp_path):
        # A 1000-level C copy has 1000 eigenvalues to enumerate types over.
        state = tmp_path / "wide.json"
        assert main(["sample-state", "--dims", "C=1000,A=1,B=1,R=1", "--seed", "1", "--out", str(state)]) == 0
        res = run_json(capsys, "iid", "--state", str(state), "--n", "1")["results"]
        assert res["distance_to_target"] <= min(2.0, res["measured_bound"]) + 1e-8

    def test_thousand_level_register_refused_at_n2(self, capsys, tmp_path):
        # Two copies of a 1000-level C have comb(1001, 999) = 500,500 types
        # of 1000 counts each: refused before the enumeration starts.
        state = tmp_path / "wide.json"
        assert main(["sample-state", "--dims", "C=1000,A=1,B=1,R=1", "--seed", "1", "--out", str(state)]) == 0
        code, out, err = run_cli(capsys, "iid", "--state", str(state), "--n", "2")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "type enumeration of C" in err and "Traceback" not in err

    def test_missing_subcommand_is_usage(self, capsys):
        assert run_cli(capsys, )[0] == 1

    def test_nan_state_file_is_usage_error(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "rates", "--state", _nan_state_file(tmp_path))
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "norm nan" in err

    def test_state_directory_is_usage_error(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "rates", "--state", str(tmp_path))
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "directory" in err

    @pytest.mark.parametrize("dims", ["=2,A=2", "C=2, =2"])
    def test_empty_dims_label_is_usage_error(self, capsys, tmp_path, dims):
        out_file = tmp_path / "x.json"
        code, out, err = run_cli(capsys, "sample-state", "--dims", dims, "--out", str(out_file))
        assert code == 1 and out == "" and not out_file.exists()
        assert err.count("\n") == 1 and "--dims" in err and "empty label" in err

    def test_plus_in_a_dims_label_is_usage_error(self, capsys, tmp_path):
        # --roles joins labels with '+', so a label containing one could never be given a role.
        out_file = tmp_path / "plus.json"
        code, out, err = run_cli(capsys, "sample-state", "--dims", "C+X=2,A=2", "--out", str(out_file))
        assert code == 1 and out == "" and not out_file.exists()
        assert err.count("\n") == 1 and "--dims" in err and "'+'" in err

    def test_out_in_missing_directory_is_usage_error(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "sample-state", "--dims", "C=2", "--out",
                                 str(tmp_path / "missing" / "x.json"))
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "--out" in err


def _nan_state_file(directory) -> str:
    path = directory / "nan.json"
    amps = [[float("nan"), 0.0], [0.0, 0.0], [0.0, 0.0], [0.5**0.5, 0.0]]
    path.write_text(json.dumps({"format": "qsr-state/1", "amplitudes": amps,
                                "subsystems": [{"label": "C", "dim": 2}, {"label": "R", "dim": 2}]}))
    return str(path)


# Every subcommand from a small valid command line, with each flag's value
# replaced by each malformed value in turn.  "{dir}", "{missing}" and "{nan}"
# stand for a directory, a path that does not exist and a state file with a
# NaN amplitude.
_VALID = {
    "rates": ("rates", "--state", "bell-CR"),
    "decouple": ("decouple", "--partition", "1,1,2", "--dim-c", "2", "--samples", "100",
                 "--search-budget", "4"),
    "protocol": ("protocol", "--state", "bell-CR", "--partition", "1,1,2"),
    "iid": ("iid", "--state", "bell-CR", "--n", "2", "--delta", "0.05"),
    "sample-state": ("sample-state", "--dims", "C=2,A=2"),
}
_FLAGS = {
    "rates": ("--state", "--roles", "--seed"),
    "decouple": ("--partition", "--samples", "--seed", "--dim-c", "--dim-f", "--dim-e",
                 "--omega", "--psi", "--rank", "--search-budget"),
    "protocol": ("--state", "--roles", "--partition", "--seed", "--search-budget"),
    "iid": ("--state", "--roles", "--n", "--sweep", "--delta", "--t", "--seed", "--guard"),
    "sample-state": ("--dims", "--seed", "--out"),
}
_MALFORMED = ("x", "0", "-1", "nan", "")
_FLAG_MALFORMED = {
    "--partition": ("2,2", "1,1,1,2", "0,1,2"),
    "--roles": ("Q=C", "C=C", "C=Q,A=A,B=B,R=R"),
    "--state": ("{dir}", "{missing}", "{nan}"),
    "--dims": ("C=0", "C", "C=2,C=2"),
    "--sweep": ("5..2", "1..x", "0..1"),
    "--out": ("{dir}", "{missing}/x.json"),
    "--n": ("7200",),  # 4^7200 has more digits than Python will print
    "--samples": ("100000000000",),  # 745 GiB of squared residuals
}


class TestNoTraceback:
    @pytest.mark.parametrize("command", sorted(_VALID))
    def test_malformed_flag_values_map_to_exit_codes(self, capsys, tmp_path, monkeypatch, command):
        monkeypatch.chdir(tmp_path)  # --out values land here
        files = {"{dir}": str(tmp_path), "{missing}": str(tmp_path / "missing"),
                 "{nan}": _nan_state_file(tmp_path)}
        bad = []
        for flag in _FLAGS[command]:
            for value in _MALFORMED + _FLAG_MALFORMED.get(flag, ()):
                for token, path in files.items():
                    value = value.replace(token, path)
                argv = list(_VALID[command])
                if flag in argv:
                    argv[argv.index(flag) + 1] = value
                else:
                    argv += [flag, value]
                code, _, err = run_cli(capsys, *argv)
                if code not in (0, 1, 2, 3) or (code and err.count("\n") != 1):
                    bad.append((argv, code, err))
        assert bad == []


class TestFlagSurface:
    @pytest.mark.parametrize("command", sorted(_FLAGS))
    def test_each_subcommand_takes_exactly_its_flags(self, command):
        (subparsers,) = (a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        assert sorted(subparsers.choices) == sorted(_FLAGS)
        got = [s for action in subparsers.choices[command]._actions for s in action.option_strings]
        extra = ("--reverse",) if command == "protocol" else ()  # takes no value, so not in _FLAGS
        assert sorted(got) == sorted((*_FLAGS[command], "-h", "--help", *extra))


# The commands whose records (excluding timings), stderr and state file are compared byte for
# byte between two versions of the code, each with its documented exit code.  They run in one
# directory, where the first writes the s.json that others read.
BIT_IDENTITY_COMMANDS = (
    ("sample-state --dims C=4,A=2,B=2,R=2 --seed 7 --out s.json", 0),
    ("rates --state bell-CR", 0),
    ("rates --state s.json", 0),
    ("rates --state random --seed 3", 0),
    ("decouple --partition 2,2,2 --samples 500 --seed 7", 0),
    ("decouple --partition 2,2,1 --dim-c 4 --omega pi --psi pi --samples 500", 0),
    ("protocol --state bell-CA --partition 1,2,1 --seed 3", 0),
    ("protocol --state bell-CR --partition 1,1,2 --seed 3 --reverse", 0),
    ("protocol --state s.json --partition 2,1,2 --seed 5", 0),
    ("protocol --state s.json --partition 1,2,2 --seed 5 --reverse", 0),
    ("protocol --state random --partition 2,1,1 --seed 9 --roles C=C,A=B,B=A,R=R", 0),
    ("iid --state product --n 5 --delta 0.1 --seed 1", 0),
    ("iid --state bell-CR --sweep 2..6 --delta 0.05 --t 1.5 --seed 1", 0),
    ("iid --state ghz-CBR --n 4 --delta 0.05 --seed 2", 0),
    ("iid --state ghz-CBR --n 5 --delta 0.05 --seed 1", 0),
    ("iid --state random --n 3 --delta 0.35 --t 1.2 --seed 124", 0),
    ("iid --state tilted-ghz-CBR --n 5 --delta 0.2 --seed 1", 0),
    ("iid --state tilted-CR --n 7 --delta 2.127125289449806", 0),
    ("iid --state bell-CA --n 6 --delta 0.2", 0),
)


def comparable_output(stdout: str) -> list:
    """Each stdout line: a JSON record without its timings, or a CSV row as it is."""
    out = []
    for line in stdout.splitlines():
        if line.startswith("{"):
            record = json.loads(line)
            record.pop("timings")
            out.append(record)
        else:
            out.append(line)
    return out


class TestBitIdentityCommands:
    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("bit_identity")
        argv = BIT_IDENTITY_COMMANDS[0][0].split()
        assert main(argv[:-1] + [str(directory / argv[-1])]) == 0
        return directory

    @pytest.mark.parametrize("command,code", BIT_IDENTITY_COMMANDS, ids=[c for c, _ in BIT_IDENTITY_COMMANDS])
    def test_two_runs_agree(self, capsys, monkeypatch, workdir, command, code):
        monkeypatch.chdir(workdir)
        runs = []
        for _ in range(2):
            got, stdout, stderr = run_cli(capsys, *command.split())
            assert got == code, stderr
            runs.append((comparable_output(stdout), stderr, (workdir / "s.json").read_bytes()))
        assert runs[0] == runs[1]
        assert runs[0][0] or command.startswith("sample-state")
