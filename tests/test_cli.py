import csv
import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

from chatquant.chatnet import ChatNetworkSpec
from chatquant.cli import main

SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"


def last_float(stdout, prefix, token=-1):
    lines = [l for l in stdout.splitlines() if l.startswith(prefix)]
    assert lines, f"no line starting with {prefix!r} in:\n{stdout}"
    return float(lines[-1].split()[token])


def test_validate_serial_chain(capsys):
    assert main(["validate", "-N", "3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("ok: 3 sensors, hash ")


def test_validate_sample_spec(capsys):
    assert main(["validate", "--spec", str(SPEC_DIR / "max4_chat.txt")]) == 0
    assert "hash be2f66210bbcfd55" in capsys.readouterr().out


def test_validate_reports_violations(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text(
        "N = 3\nedge = 1 2 2 0\nedge = 2 3 2 0\nschedule = 2>3 1>2\n"
    )
    assert main(["validate", "--spec", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("spec error: line 4, key 'schedule': C2")
    assert captured.out == ""


# Chat topologies other than the serial chain, each with where its spec
# error points and the identifiability condition it breaks, if any.
NON_CHAIN_CASES = {
    "fan-out": ("N = 3\nedge = 1 2 2 0\nedge = 1 3 2 0\n", "line 3, key 'edge'", None),
    "partial chain": ("N = 3\nedge = 2 3 2 0\n", "line 2, key 'edge'", None),
    "cycle": (
        "N = 3\nedge = 1 2 2 0\nedge = 2 3 2 0\nedge = 3 1 2 0\n"
        "schedule = 1>2 2>3 3>1\n",
        "line 4, key 'edge'",
        "C1",
    ),
    "schedule out of order": (
        "N = 3\nedge = 1 2 2 0\nedge = 2 3 2 0\nschedule = 2>3 1>2\n",
        "line 4, key 'schedule'",
        "C2",
    ),
    "schedule names an absent edge": (
        "N = 3\nedge = 1 2 2 0\nedge = 2 3 2 0\nschedule = 1>2 2>3 1>3\n",
        "line 4, key 'schedule'",
        "C2",
    ),
}


@pytest.mark.parametrize("case", sorted(NON_CHAIN_CASES))
@pytest.mark.parametrize(
    "command",
    [
        ["validate"],
        ["predict", "--budget", "12"],
        ["design", "--budget", "12"],
        ["simulate", "--budget", "12", "--trials", "1000"],
    ],
)
def test_non_chain_specs_are_spec_errors(case, command, tmp_path, capsys):
    text, where, condition = NON_CHAIN_CASES[case]
    spec = tmp_path / "spec.txt"
    spec.write_text(text)
    assert main([command[0], "--spec", str(spec), *command[1:]]) == 2
    captured = capsys.readouterr()
    named = "" if condition is None else f"{condition}: "
    assert captured.err.startswith(f"spec error: {where}: {named}")
    # Rejected at parse: nothing was computed or printed.
    assert captured.out == ""


def test_alpha_c_replaces_every_link_cost_of_a_spec(capsys):
    max4 = str(SPEC_DIR / "max4_chat.txt")
    assert main(["validate", "--spec", max4, "--alpha-c", "0.5"]) == 0
    want = ChatNetworkSpec.serial_max(4, 4, 0.5).spec_hash()
    assert f"hash {want}" in capsys.readouterr().out
    silent = str(SPEC_DIR / "max2_nochat.txt")
    assert main(["validate", "--spec", silent, "--alpha-c", "0.5"]) == 0
    assert "hash 8a7539fc2e628c81" in capsys.readouterr().out


def test_malformed_spec_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("N = 3\nedge = 1 2\n")
    assert main(["validate", "--spec", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("spec error: line 2, key 'edge'")


ONE_PARTITION_CASES = {
    "differing partition lines": (
        "N = 3\nedge = 1 2 2 0\nedge = 2 3 2 0\n"
        "partition = 1 2 : 0 0.7 1\npartition = 2 3 : 0 0.6 1\n",
        "line 5, key 'partition'",
    ),
    "edges of different sizes": (
        "N = 3\nedge = 1 2 2 0\nedge = 2 3 4 0\n",
        "line 3, key 'edge'",
    ),
    "second partition line for an edge": (
        "N = 2\nedge = 1 2 2 0\n"
        "partition = 1 2 : 0 0.5 1\npartition = 1 2 : 0 0.7 1\n",
        "line 4, key 'partition'",
    ),
}


@pytest.mark.parametrize("case", sorted(ONE_PARTITION_CASES))
@pytest.mark.parametrize(
    "command", [["validate"], ["predict", "--budget", "12"], ["design", "--budget", "12"]]
)
def test_specs_without_one_shared_partition_are_spec_errors(
    case, command, tmp_path, capsys
):
    # Every chat edge reports a cell of one partition; the closed forms
    # cover nothing else.
    text, where = ONE_PARTITION_CASES[case]
    spec = tmp_path / "spec.txt"
    spec.write_text(text)
    assert main([command[0], "--spec", str(spec), *command[1:]]) == 2
    assert capsys.readouterr().err.startswith(f"spec error: {where}")


@pytest.mark.parametrize(
    "text, where",
    [
        ("N = 2\nedge = 1 3 2 0\n", "line 2, key 'edge': edge (1, 3) leaves the node set"),
        ("N = 2\nedge = 1 2 2 0\nedge = 1 2 2 0\n", "line 3, key 'edge': duplicate chat edges"),
    ],
)
@pytest.mark.parametrize("command", [["validate"], ["predict", "--budget", "8"]])
def test_chat_graph_errors_are_spec_errors(text, where, command, tmp_path, capsys):
    spec = tmp_path / "spec.txt"
    spec.write_text(text)
    assert main([command[0], "--spec", str(spec), *command[1:]]) == 2
    assert capsys.readouterr().err.startswith(f"spec error: {where}")


def test_unsupported_computation_is_spec_error(tmp_path, capsys):
    spec = tmp_path / "spec.txt"
    spec.write_text("N = 2\ncomputation = sum\n")
    assert main(["validate", "--spec", str(spec)]) == 2
    assert "unsupported computation 'sum'" in capsys.readouterr().err


def test_missing_spec_file(capsys):
    assert main(["validate", "--spec", "/no/such/file.txt"]) == 2


def test_network_flags_required(capsys):
    assert main(["validate"]) == 2
    assert "give --spec or --sensors" in capsys.readouterr().err


def test_unknown_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_allocate_fixed_rate(capsys):
    assert main(["allocate", "-N", "5", "--budget", "25"]) == 0
    out = capsys.readouterr().out
    assert "sensor 1 message -:" in out
    assert out.count("sensor") == 5
    assert last_float(out, "predicted fMSE") == pytest.approx(2.558792e-5, rel=1e-5)


def test_allocate_entropy(capsys):
    code = main(
        ["allocate", "-N", "5", "--budget", "25", "--regime", "entropy-constrained"]
    )
    assert code == 0
    out = capsys.readouterr().out
    # One line per live (sensor, message) pair: 1 + 4 * 2.
    assert out.count("sensor") == 9
    assert last_float(out, "predicted fMSE") == pytest.approx(1.531615e-6, rel=1e-5)


def test_allocate_partition_override(capsys):
    assert main(["allocate", "-N", "5", "--budget", "25", "--p1", "0.52"]) == 0
    skew = last_float(capsys.readouterr().out, "predicted fMSE")
    assert skew == pytest.approx(2.557027e-5, rel=1e-5)


def test_allocate_infeasible_budget(capsys):
    code = main(
        ["allocate", "-N", "4", "--chat-rate", "4", "--alpha-c", "2",
         "--budget", "16"]
    )
    assert code == 1
    assert "exhausts the budget" in capsys.readouterr().err


@pytest.mark.parametrize("budget", ["-5", "0"])
def test_allocate_nonpositive_budget(budget, capsys):
    # Said before any chat is charged, even on a network without chat.
    code = main(["allocate", "-N", "3", "--budget", budget])
    assert code == 1
    assert f"budget must be positive, got {budget}" in capsys.readouterr().err


@pytest.mark.parametrize("budget", ["-3", "0"])
@pytest.mark.parametrize("command", ["sweep-rc", "sweep-p1", "scenarios"])
def test_sweeps_nonpositive_budget(command, budget, capsys):
    # The same error and exit code as allocate, not a table of infeasible rows.
    code = main([command, "-N", "3", "--budget", budget])
    assert code == 1
    captured = capsys.readouterr()
    assert f"budget must be positive, got {budget}" in captured.err
    assert "infeasible" not in captured.out


@pytest.mark.parametrize("budget", ["nan", "inf"])
@pytest.mark.parametrize("regime", ["fixed-rate", "entropy-constrained"])
def test_allocate_non_finite_budget(budget, regime, capsys):
    code = main(["allocate", "-N", "3", "--budget", budget, "--regime", regime])
    assert code == 1
    captured = capsys.readouterr()
    assert "finite" in captured.err
    assert "rate" not in captured.out


def test_allocate_csv_out(tmp_path, capsys):
    out = tmp_path / "alloc.csv"
    assert main(["allocate", "-N", "3", "--budget", "12", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# C = 12.0"
    data = [l for l in lines if not l.startswith("#")]
    rows = list(csv.DictReader(data))
    assert [r["sensor"] for r in rows] == ["1", "2", "3"]


def test_predict_needs_exactly_one_input(capsys):
    assert main(["predict", "-N", "3"]) == 2
    assert main(["predict", "-N", "3", "--budget", "12", "--rates", "4,4,4"]) == 2


def test_predict_budget_matches_allocate(capsys):
    assert main(["predict", "-N", "5", "--budget", "25"]) == 0
    out = capsys.readouterr().out
    assert last_float(out, "predicted fMSE") == pytest.approx(2.558792e-5, rel=1e-5)


def test_predict_explicit_rates(capsys):
    assert main(["predict", "-N", "2", "--rates", "4,4"]) == 0
    out = capsys.readouterr().out
    assert "sensor 1:" in out and "sensor 2:" in out
    assert last_float(out, "predicted fMSE") > 0


def test_predict_per_message_rates(capsys):
    code = main(
        ["predict", "-N", "2", "--regime", "entropy-constrained",
         "--rates", "4,4/3.5"]
    )
    assert code == 0


def test_predict_infeasible_rate(capsys):
    # One bit cannot pay the don't-care gate of the second message.
    code = main(
        ["predict", "-N", "2", "--regime", "entropy-constrained", "--rates", "4,1"]
    )
    assert code == 1
    assert "flag" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ["predict", "-N", "2", "--rates=-1,4"],
        ["design", "-N", "2", "--rates=-1,4"],
        ["simulate", "-N", "2", "--rates=-1,4", "--trials", "100"],
        ["design", "-N", "2", "--rates=4,0.9"],
    ],
)
def test_fixed_rate_below_one_granular_cell_exits_1(args, capsys):
    # Half a codeword at sensor 1, or 1.87 codewords beside sensor 2's
    # don't-care cell: refused as the entropy-coded regime refuses
    # --rates=-1,4.
    assert main(args) == 1
    assert "less than one granular cell" in capsys.readouterr().err


ENTROPY = ["--regime", "entropy-constrained"]


@pytest.mark.parametrize(
    "args, match",
    [
        (["predict", *ENTROPY, "--rates", "5,5"], "need one rate per sensor"),
        (["predict", *ENTROPY, "--rates", "5,5,5,5"], "need one rate per sensor"),
        (["predict", *ENTROPY, "--rates", "5,5/5/5,5"], "sensor 2: need one rate per message"),
        (["design", *ENTROPY, "--rates", "5,5"], "need one rate per sensor"),
        (["design", *ENTROPY, "--rates", "5,5,5,5"], "need one rate per sensor"),
        (["design", "--rates", "5,5,5,5"], "need one rate per sensor"),
        (["predict", "--rates", "5,5/4,5"], "sensor 2: fixed-rate coding takes one rate"),
    ],
)
def test_rates_of_the_wrong_shape_exit_1(args, match, capsys):
    # N = 3 behind one-bit chat: sensors 2 and 3 hear two messages each.
    assert main([args[0], "-N", "3", *args[1:]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: sensor") and match in err
    assert "Traceback" not in err


def test_design_prints_sizes_and_dumps_banks(tmp_path, capsys):
    banks = tmp_path / "banks"
    code = main(
        ["design", "-N", "3", "--budget", "12", "--banks-dir", str(banks)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("sensor") == 3
    assert "banks written to" in out
    files = sorted(p.name for p in banks.iterdir())
    assert files == [
        "sensor1_msg1.txt",
        "sensor2_msg1.txt",
        "sensor2_msg2.txt",
        "sensor3_msg1.txt",
        "sensor3_msg2.txt",
    ]
    # Boundaries, codewords and don't-care cells, one line each, with
    # every file the same bytes as when each row was its own object.
    assert (banks / "sensor2_msg2.txt").read_text().splitlines()[2] == "1"
    assert (banks / "sensor2_msg1.txt").read_text().endswith("\n\n")
    digest = hashlib.sha256(b"".join((banks / name).read_bytes() for name in files))
    assert digest.hexdigest() == (
        "510fb25e58955fac11951a3732e1dc793a25edd9c495d49ccfba288a85dc0190"
    )


@pytest.mark.parametrize(
    "args",
    [
        ["design", "-N", "2", "--budget", "200"],
        ["design", "-N", "2", "--budget", "60"],
        ["simulate", "-N", "2", "--budget", "60", "--trials", "1000"],
        ["design", "-N", "2", "--budget", "130", "--regime", "entropy-constrained"],
        ["design", "-N", "1", "--rates", "20.5"],
    ],
)
def test_codebooks_above_the_cap_exit_1(args, capsys):
    # Rates of about 100 and 30 bits once cast to garbage sizes or asked
    # for GiBs of codebook; now the largest codebook is named instead.
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: sensor 1, message 1: its rate asks for")
    assert "largest codebook of 1048576 cells" in err
    assert "Traceback" not in err and "Warning" not in err


def test_simulate_at_2_to_the_16_cells(capsys):
    # A don't-care row of 2^16 cells builds, and the run meets the
    # prediction (1.5151e-11) within a percent.
    args = ["simulate", "-N", "2", "--budget", "32", "--trials", "65536", "--decoder", "plug-in"]
    assert main(args) == 0
    values = {
        line.split()[0]: float(line.split()[2])
        for line in capsys.readouterr().out.splitlines()
        if "fMSE" in line
    }
    assert values["empirical"] == pytest.approx(values["predicted"], rel=0.01)


def test_design_with_rates(capsys):
    assert main(["design", "-N", "3", "--rates", "3,3,3"]) == 0
    out = capsys.readouterr().out
    assert "sensor 1: sizes 8" in out


def test_simulate_reports_everything(tmp_path, capsys):
    out_csv = tmp_path / "sim.csv"
    code = main(
        ["simulate", "-N", "2", "--budget", "8", "--trials", "4000",
         "--decoder", "plug-in", "--out", str(out_csv)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "trials 4000" in out
    emp = last_float(out, "empirical fMSE", token=2)
    pred = last_float(out, "predicted fMSE")
    assert abs(emp - pred) < 0.5 * pred
    assert "spent rates" in out
    rows = list(csv.DictReader(
        l for l in out_csv.read_text().splitlines() if not l.startswith("#")
    ))
    assert rows[0]["N"] == "2"
    assert float(rows[0]["fmse"]) == pytest.approx(emp, rel=1e-6)


def test_simulate_out_fills_the_chat_rate(tmp_path, capsys):
    # Rc is log2 of the chain's message count, and blank without chat; a
    # second run overwrites the file, which holds one row.
    def rows(args):
        out_csv = tmp_path / "sim.csv"
        for _ in range(2):
            assert main(["simulate", *args, "--trials", "2000", "--out", str(out_csv)]) == 0
        return list(csv.DictReader(
            l for l in out_csv.read_text().splitlines() if not l.startswith("#")
        ))

    chatty = rows(["-N", "3", "--chat-rate", "1", "--budget", "12"])
    assert len(chatty) == 1 and float(chatty[0]["Rc"]) == 1.0
    silent = rows(["--spec", str(SPEC_DIR / "max2_nochat.txt"), "--budget", "4"])
    assert len(silent) == 1 and silent[0]["Rc"] == ""
    capsys.readouterr()


def test_simulate_seed_stability(capsys):
    args = ["simulate", "-N", "2", "--budget", "8", "--trials", "2000",
            "--decoder", "plug-in"]
    assert main(args + ["--seed", "7"]) == 0
    first = last_float(capsys.readouterr().out, "empirical fMSE", token=2)
    assert main(args + ["--seed", "7", "--workers", "3"]) == 0
    second = last_float(capsys.readouterr().out, "empirical fMSE", token=2)
    assert first == second


def test_simulate_rejects_zero_workers(capsys):
    code = main(["simulate", "-N", "2", "--budget", "8", "--trials", "2000",
                 "--workers", "0"])
    assert code == 1
    assert "worker" in capsys.readouterr().err


def test_simulate_rejects_negative_seed(capsys):
    code = main(["simulate", "-N", "2", "--budget", "8", "--trials", "2000",
                 "--seed", "-1"])
    assert code == 1
    assert capsys.readouterr().err == "error: seed must be an integer >= 0, got -1\n"


def test_non_unit_source_is_spec_error(tmp_path, capsys):
    wide = tmp_path / "wide.txt"
    wide.write_text("N = 2\nsource = uniform 0 2\nedge = 1 2 2 0\n")
    assert main(["allocate", "--spec", str(wide), "--budget", "8"]) == 2
    assert "uniform on [0, 1]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ["predict", "-N", "2", "--rates", "nan,4"],
        ["predict", "-N", "2", "--regime", "entropy-constrained", "--rates", "4,4/inf"],
        ["design", "-N", "3", "--rates", "3,nan,3"],
        ["simulate", "-N", "3", "--rates", "3,-inf,3", "--trials", "100"],
    ],
)
def test_non_finite_rates_exit_1(args, capsys):
    assert main(args) == 1
    assert "rates must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ["sweep-rc", "-N", "3", "--budget", "12", "--alpha-c", "nan"],
        ["sweep-rc", "-N", "3", "--budget", "12", "--fusion-alpha", "inf"],
        ["allocate", "-N", "3", "--budget", "12", "--alpha-c", "inf"],
        ["allocate", "-N", "3", "--budget", "12", "--fusion-alpha", "nan"],
        ["allocate", "--spec", str(SPEC_DIR / "max4_chat.txt"), "--budget", "16",
         "--alpha-c", "nan"],
        ["allocate", "--spec", str(SPEC_DIR / "max4_chat.txt"), "--budget", "16",
         "--fusion-alpha", "nan"],
    ],
)
def test_non_finite_link_costs_exit_1(args, capsys):
    assert main(args) == 1
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "network",
    [["--sensors", "3"], ["--spec", str(SPEC_DIR / "max4_chat.txt")]],
)
def test_negative_chat_rate_exits_1(network, capsys):
    # Both network sources name the bad chat rate, not a codebook size.
    assert main(["predict", *network, "--chat-rate", "-1", "--budget", "12"]) == 1
    err = capsys.readouterr().err
    assert "chat rate must be a nonnegative integer, got -1" in err


@pytest.mark.parametrize(
    "line", ["edge = 1 2 4 nan", "edge = 1 2 4 inf", "fusion_alpha = 1 nan"]
)
def test_non_finite_link_cost_in_spec_is_spec_error(line, tmp_path, capsys):
    spec = tmp_path / "spec.txt"
    spec.write_text(f"N = 2\n{line}\n")
    assert main(["validate", "--spec", str(spec)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("spec error:") and "must be finite" in err


def test_non_finite_partition_boundary_is_an_error(tmp_path, capsys):
    assert main(["validate", "-N", "3", "--p1", "nan"]) == 1
    assert capsys.readouterr().err == (
        "error: partition (0.0, nan, 1.0) must be finite, strictly increasing boundaries\n"
    )
    spec = tmp_path / "spec.txt"
    spec.write_text("N = 2\nedge = 1 2 2 0\npartition = 1 2 : 0 nan 1\n")
    for command in (["validate"], ["predict", "--rates", "4,4"], ["design", "--budget", "8"]):
        assert main([*command, "--spec", str(spec)]) == 2
        assert capsys.readouterr().err.startswith("spec error: line 3, key 'partition'")


def test_sweep_rc_stdout_and_csv(tmp_path, capsys):
    assert main(["sweep-rc", "-N", "3", "--budget", "12", "--rc-max", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("Rc ") == 3
    csv_path = tmp_path / "rc.csv"
    assert main(
        ["sweep-rc", "-N", "3", "--budget", "12", "--rc-max", "2",
         "--out", str(csv_path)]
    ) == 0
    text = csv_path.read_text()
    assert "# variable = Rc" in text
    rows = list(csv.DictReader(
        l for l in text.splitlines() if not l.startswith("#")
    ))
    assert len(rows) == 3


@pytest.mark.parametrize("command", ["sweep-rc", "sweep-p1"])
def test_sweeps_use_the_budget_as_given(command, tmp_path, capsys):
    # Not split over the sensors and multiplied back: 0.9 / 3 * 3 is
    # 0.8999999999999999.
    out = tmp_path / "sweep.csv"
    assert main([command, "-N", "3", "--budget", "0.9", "--out", str(out)]) == 0
    assert "# C = 0.9\n" in out.read_text()


def test_sweep_p1_baseline_pays_the_fusion_cost(capsys):
    args = ["sweep-p1", "-N", "4", "--budget", "16", "--fusion-alpha", "2", "--step", "0.25"]
    assert main(args) == 0
    assert capsys.readouterr().out.splitlines() == [
        "p1 0.25: ratio 0.8807", "p1 0.50: ratio 0.8203", "p1 0.75: ratio 0.9213",
    ]


def test_sweep_rc_has_no_simulation_flags(capsys):
    for flag in ("--simulate", "--trials=10", "--seed=1"):
        with pytest.raises(SystemExit) as exc:
            main(["sweep-rc", "-N", "3", "--budget", "12", flag])
        assert exc.value.code == 2


def test_sweep_p1(capsys):
    assert main(["sweep-p1", "-N", "3", "--budget", "12", "--step", "0.25"]) == 0
    out = capsys.readouterr().out
    assert out.count("p1 ") == 3
    assert "ratio" in out


@pytest.mark.parametrize("step", ["0", "1", "-0.1", "1.5", "nan", "inf"])
def test_sweep_p1_rejects_bad_step(step, capsys):
    assert main(["sweep-p1", "-N", "3", "--budget", "12", "--step", step]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --step must be inside (0, 1)")


@pytest.mark.parametrize(
    "args",
    [
        ["sweep-rc", "-N", "0", "--budget", "10"],
        ["sweep-p1", "-N", "0", "--budget", "4"],
        ["scenarios", "-N", "0"],
        ["allocate", "-N", "0", "--budget", "4"],
    ],
)
def test_zero_sensors_is_an_error(args, capsys):
    assert main(args) == 1
    assert capsys.readouterr().err == "error: need at least one sensor\n"


@pytest.mark.parametrize(
    "args", [["sweep-p1", "-N", "1", "--budget", "4"], ["scenarios", "-N", "1"]]
)
def test_partition_commands_refuse_one_sensor(args, capsys):
    # One sensor has no chat link, so there is no partition to sweep.
    assert main(args) == 1
    assert capsys.readouterr().err.startswith("error: a partition sweep needs chat links")


def test_scenarios_refuse_a_budget_whose_prediction_underflows(capsys):
    assert main(["scenarios", "-N", "3", "--budget", "1e308"]) == 1
    err = capsys.readouterr().err
    assert err == ("error: the predicted fixed-rate fMSE of scenario no-chat is 0.0 "
                   "at budget 1e+308; the ladder needs it positive\n")


def test_scenarios_command(capsys):
    assert main(["scenarios", "-N", "3", "--budget", "9"]) == 0
    out = capsys.readouterr().out
    assert out.count("improvement") == 8
    assert "no-chat" in out and "3-allocation+partition" in out


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "chatquant.cli", "validate", "-N", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("ok: 2 sensors")
