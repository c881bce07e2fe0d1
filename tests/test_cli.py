"""CLI subcommands: reports, determinism, exit codes, file round trips."""

import json

import numpy as np
import pytest

from qsr.cli import main
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

    def test_guard_refusal_is_two(self, capsys):
        code, _, err = run_cli(capsys, "iid", "--state", "product", "--n", "8", "--seed", "1")
        assert code == 2 and "guard" in err

    def test_axis_limit_refusal_is_two(self, capsys, tmp_path):
        state = str(tmp_path / "two.json")
        assert run_cli(capsys, "sample-state", "--dims", "C=2,A=1,B=1,R=1", "--out", state)[0] == 0
        code, out, err = run_cli(capsys, "iid", "--state", state, "--n", "17", "--delta", "0.5")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "axes" in err and "Traceback" not in err

    def test_infeasible_allocation_is_two(self, capsys):
        code, _, err = run_cli(capsys, "iid", "--state", "tilted-CR", "--n", "3",
                               "--delta", "0.4", "--seed", "1")
        assert code == 2 and "eta" in err

    @pytest.mark.parametrize("argv,flag", [
        (("decouple", "--partition", "2,2,2", "--samples", "50"), "--samples"),
        (("decouple", "--partition", "2,2,2", "--search-budget", "0"), "--search-budget"),
        (("protocol", "--state", "bell-CA", "--partition", "1,2,1", "--search-budget", "0"),
         "--search-budget"),
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
