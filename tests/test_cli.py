import json
import time

import mpmath as mp
import pytest

from chowreg import (
    CycleParseError,
    admissible,
    make_schedule,
    parse_cycle_file,
    serialize_cycles,
    workprec,
)
from chowreg.cli import main
from chowreg.fixtures import FIXTURES, fixture_names, load_fixture
from chowreg.wavefront import TRACE_GRID_DEFAULT

Z1_TEXT = """\
field cyclotomic(1)
cycle z1 n=3 p=2
component mult=1 1-1/t ; 1-t ; 1/t
"""

PETRAS_TEXT = FIXTURES["petras_zeta5"]


def test_parse_z1_file(z1):
    cycles = parse_cycle_file(Z1_TEXT)
    assert len(cycles) == 1
    Z = cycles[0]
    assert (Z.n, Z.p, Z.order) == (3, 2, 1)
    assert Z.components[0].key() == z1.components[0].key()


def test_parse_petras_file(petras):
    Z = parse_cycle_file(PETRAS_TEXT)[0]
    assert Z.order == 5
    assert len(Z.components) == 3
    assert {c.key() for c in Z.components} == {c.key() for c in petras.components}


def test_parse_arity_error():
    bad = "field cyclotomic(1)\ncycle c n=3 p=2\ncomponent mult=1 t ; t ; \n"
    with pytest.raises(CycleParseError):
        parse_cycle_file(bad)


def test_parse_wrong_count():
    bad = "field cyclotomic(1)\ncycle c n=3 p=2\ncomponent mult=1 t ; 1-t\n"
    with pytest.raises(CycleParseError, match="expected 3"):
        parse_cycle_file(bad)


def test_parse_identically_one_coordinate():
    bad = "field cyclotomic(1)\ncycle c n=2 p=1\ncomponent mult=1 t ; 1\n"
    with pytest.raises(CycleParseError, match="identically 1|equals 1"):
        parse_cycle_file(bad)


def test_parse_reports_position():
    bad = "field cyclotomic(1)\ncycle c n=2 p=1\ncomponent mult=1 t ; t @ 1\n"
    with pytest.raises(CycleParseError) as err:
        parse_cycle_file(bad)
    assert "line 3" in str(err.value)


def test_parse_i_requires_divisible_order():
    bad = "field cyclotomic(5)\ncycle c n=2 p=1\ncomponent mult=1 t ; i*t-2\n"
    with pytest.raises(CycleParseError, match="divisible by 4"):
        parse_cycle_file(bad)


def test_point_level_components():
    text = "field cyclotomic(1)\ncycle pts n=1 p=1\ncomponent mult=2 2\ncomponent mult=-1 3\n"
    Z = parse_cycle_file(text)[0]
    assert Z.is_point_level
    assert len(Z.components) == 2


@pytest.mark.parametrize("name", fixture_names())
def test_round_trip(name):
    first = parse_cycle_file(FIXTURES[name])
    text = serialize_cycles(first)
    second = parse_cycle_file(text)
    assert serialize_cycles(second) == text
    for a, b in zip(first, second):
        assert [c.key() if hasattr(c, "key") else c.exact_key()
                for c in a.components] == \
               [c.key() if hasattr(c, "key") else c.exact_key()
                for c in b.components]


def test_fixture_loading():
    assert fixture_names() == ["graph_4_2", "mccarthy_counterexample",
                               "petras_zeta5", "totaro_s2_plus_i", "z1_totaro",
                               "z_minus1"]
    for name in fixture_names():
        load_fixture(name)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_fixtures_command(capsys):
    code, out, _ = _run(capsys, ["fixtures"])
    assert code == 0
    data = json.loads(out)
    assert sorted(data["fixtures"]) == fixture_names()


def test_cli_check(capsys):
    code, out, _ = _run(capsys, ["check", "--fixture", "z1_totaro",
                                 "--precision", "128"])
    assert code == 0
    rec = json.loads(out)["cycles"]["z1_totaro"]
    assert rec["proper"] and rec["closed"] and rec["normalized"]


def test_cli_boundary_graph(capsys):
    code, out, _ = _run(capsys, ["boundary", "--fixture", "graph_4_2",
                                 "--precision", "128"])
    assert code == 0
    rec = json.loads(out)["cycles"]["graph_4_2"]
    pts = {p["coords"][0]: p["mult"] for p in rec["boundary"]["points"]}
    assert pts == {"4": 1, "2": -2}


def test_cli_admissible_equal_phase(capsys):
    code, out, _ = _run(capsys, ["admissible", "--fixture",
                                 "mccarthy_counterexample", "--eps", "0.2",
                                 "--equal-phase", "--precision", "128"])
    assert code == 0
    rec = json.loads(out)["cycles"]["mccarthy_counterexample"]
    assert rec["ok"] is False
    assert not rec["b_nested"]
    wit = [f for f in rec["failures"] if f["kind"] == "triple"][0]["witness"]
    assert abs(float(wit["re"]) - 0.20271003550867248) < 1e-10


def test_cli_admissible_nested(capsys):
    code, out, _ = _run(capsys, ["admissible", "--fixture", "z1_totaro",
                                 "--eps", "0.3", "--precision", "128"])
    assert code == 0
    rec = json.loads(out)["cycles"]["z1_totaro"]
    assert rec["ok"] is True and rec["b_nested"] is True


def test_cli_admissible_refuses_a_schedule_too_deep_to_use(capsys):
    # at bound 1e-4, 1/eps_2 is about 2^28855: the schedule is refused with
    # the schedule exit code before its third phase is built, which took
    # minutes, and before describe() prints digits Python will not write
    start = time.perf_counter()
    code, out, err = _run(capsys, ["admissible", "--fixture", "z1_totaro",
                                   "--eps", "1e-4"])
    assert time.perf_counter() - start < 5
    assert code == 4 and out == ""
    error = json.loads(err)["error"]
    assert error["class"] == "schedule" and "underflow" in error["message"]


def test_cli_admissible_verdict_is_the_librarys(tmp_path, capsys):
    # --tolerance reports, it does not widen the cut margin: at bound 0.108
    # the second phase is 4.53e-9, and the constant -1 and the value -1 of
    # the second coordinate at both endpoints of the first locus keep that
    # margin from the second cut, more than the library's
    text = "field cyclotomic(1)\ncycle c n=2 p=1\ncomponent mult=1 t ; -1\n"
    source = tmp_path / "c.cyc"
    source.write_text(text)
    code, out, _ = _run(capsys, ["admissible", str(source), "--eps", "0.108",
                                 "--precision", "128"])
    assert code == 0
    rec = json.loads(out)["cycles"]["c"]
    with workprec(128):
        rep = admissible(parse_cycle_file(text)[0],
                         make_schedule(mp.mpf("0.108"), 2, mp.mpf("0.5"), 128),
                         precision_bits=128)
    assert rec["phases"] == rep.schedule.describe()
    assert rec["failures"] == [f.to_dict() for f in rep.failures] == []
    assert rec["ok"] is rep.ok is True


def test_cli_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cyc"
    bad.write_text("field cyclotomic(1)\ncycle c n=2 p=1\ncomponent mult=1 t\n")
    code, _, err = _run(capsys, ["check", str(bad), "--precision", "128"])
    assert code == 2
    assert json.loads(err)["error"]["class"] == "parse"


@pytest.mark.parametrize("data, offset", [
    (b"\xff\xfefield cyclotomic(1)\n", 0),
    (b"field cyclotomic(1)\n\xe9", 20),
    (b"\xef\xbb\xbffield cyclotomic(1)\n\xe9", 23),
])
def test_cli_non_utf8_file_is_a_parse_error(tmp_path, capsys, data, offset):
    # a file that is not UTF-8 text is refused like any unparsable one,
    # naming the offset of the first byte that does not decode, counted
    # from the file's first byte, a byte-order mark included
    bad = tmp_path / "bad.cyc"
    bad.write_bytes(data)
    code, _, err = _run(capsys, ["check", str(bad), "--precision", "128"])
    assert code == 2
    error = json.loads(err)["error"]
    assert error["class"] == "parse"
    assert f"byte {offset}" in error["message"]


def test_cli_reads_a_file_that_starts_with_a_byte_order_mark(tmp_path,
                                                             capsys):
    # a UTF-8 byte-order mark is no text: the file checks like one without
    plain = tmp_path / "plain.cyc"
    marked = tmp_path / "marked.cyc"
    plain.write_bytes(Z1_TEXT.encode("utf-8"))
    marked.write_bytes(b"\xef\xbb\xbf" + Z1_TEXT.encode("utf-8"))
    runs = [_run(capsys, ["check", str(source), "--precision", "128"])
            for source in (plain, marked)]
    assert runs[0] == runs[1]
    assert runs[1][0] == 0 and json.loads(runs[1][1])["cycles"]["z1"]["closed"]


class _ClosedStdout:
    """A stdout whose reader has gone, as under ``chowreg check ... | head``."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


@pytest.mark.parametrize("argv", [
    ["check", "--fixture", "z1_totaro", "--precision", "128"],
    ["check", "--fixture", "z1_totaro", "--precision", "128",
     "--format", "text"],
    ["fixtures"],
])
def test_cli_closed_stdout_is_no_error(argv, capsys, monkeypatch):
    # the report was made; a reader that stopped reading is no input/output
    # fault of the command, and leaves no error record
    monkeypatch.setattr("sys.stdout", _ClosedStdout())
    code = main(argv)
    assert code == 0
    assert capsys.readouterr().err == ""


def test_cli_properness_exit_code(tmp_path, capsys):
    improper = tmp_path / "improper.cyc"
    improper.write_text(
        "field cyclotomic(1)\ncycle w n=2 p=1\ncomponent mult=1 t ; 1-t\n")
    code, _, err = _run(capsys, ["boundary", str(improper), "--precision", "128"])
    assert code == 3
    assert json.loads(err)["error"]["class"] == "properness"


def test_cli_precision_exit_code(capsys):
    # a working precision below the supported 53 bits is refused up front
    code, _, err = _run(capsys, ["regulator", "--fixture", "z1_totaro",
                                 "--precision", "40"])
    assert code == 6
    error = json.loads(err)["error"]
    assert error["class"] == "precision"
    assert "40 bits" in error["message"]


def test_cli_refuses_a_precision_above_1024_bits(capsys):
    # the float error radii underflow above 1024 bits, so such a working
    # precision is refused up front, with the precision exit code
    code, _, err = _run(capsys, ["regulator", "--fixture", "z1_totaro",
                                 "--precision", "1100"])
    assert code == 6
    error = json.loads(err)["error"]
    assert error["class"] == "precision"
    assert "1100 bits" in error["message"]


@pytest.mark.parametrize("argv, message", [
    (["torsion", "--max-order", "0"], "max_order >= 1"),
    (["torsion", "--max-order", "-3"], "max_order >= 1"),
    (["regulator", "--tolerance", "-1"], "tolerance must be finite and >= 0"),
    (["regulator", "--tolerance", "nan"], "tolerance must be finite and >= 0"),
    (["admissible", "--schedule-lambda", "0"], "lambda must lie in (0, 1)"),
], ids=["max_order_0", "max_order_negative", "tolerance_negative",
        "tolerance_nan", "lambda_0"])
def test_cli_refuses_an_invalid_argument(argv, message, capsys,
                                         monkeypatch):
    # an argument out of range leaves as a ChowregError naming it, not as a
    # raw exception, a misleading error or a silently replaced value; a
    # torsion argument is refused before the regulator is evaluated
    import chowreg.cli as cli

    evaluated = []
    regulator = cli.regulator

    def counting(*args, **kwargs):
        evaluated.append(args)
        return regulator(*args, **kwargs)

    monkeypatch.setattr(cli, "regulator", counting)
    code, out, err = _run(capsys, argv + ["--fixture", "z1_totaro",
                                          "--precision", "128"])
    assert code == 1 and out == ""
    error = json.loads(err)["error"]
    assert error["class"] == "internal"
    assert message in error["message"]
    if argv[0] == "torsion":
        assert evaluated == []


@pytest.mark.parametrize("argv, message", [
    (["admissible", "--eps", "nan"], "0 < eps_bound < oo"),
    (["admissible", "--equal-phase", "--eps", "inf"], "must be finite"),
    (["trace", "--eps", "nan"], "0 < eps_bound < oo"),
], ids=["admissible_nan", "equal_phase_inf", "trace_nan"])
def test_cli_refuses_a_non_finite_phase(argv, message, tmp_path, capsys):
    # a nan or infinite --eps leaves as a ChowregError, not as an ok report
    # with phases "nan", and exports nothing
    export = tmp_path / "export"
    code, out, err = _run(capsys, argv + ["--fixture", "z1_totaro",
                                          "--precision", "128",
                                          *(["--export", str(export)]
                                            if argv[0] == "trace" else [])])
    assert code == 1 and out == ""
    error = json.loads(err)["error"]
    assert error["class"] == "internal"
    assert message in error["message"]
    assert not export.exists()


def test_cli_missing_input(capsys):
    code, _, err = _run(capsys, ["check", "--precision", "128"])
    assert code == 1


def test_cli_trace_export(tmp_path, capsys):
    code, out, _ = _run(capsys, ["trace", "--fixture", "graph_4_2",
                                 "--eps", "0.2", "--precision", "128",
                                 "--export", str(tmp_path)])
    assert code == 0
    rec = json.loads(out)["cycles"]["graph_4_2"]
    paths_file = tmp_path / "graph_4_2_paths.csv"
    ix_file = tmp_path / "graph_4_2_intersections.csv"
    assert paths_file.exists() and ix_file.exists()
    head = paths_file.read_text().splitlines()
    assert head[0].startswith("# chowreg path export, format_version 1")
    assert head[1] == "component_id,coord_index,sample_index,re_t,im_t,r,arg_residual"
    assert rec["path_samples"] > 0
    # every sample lies on its cut ray to a third of the working precision
    residuals = [float(row.rsplit(",", 1)[1]) for row in head[2:]]
    assert len(residuals) == rec["path_samples"]
    assert max(residuals) < 2.0 ** (-128 / 3)


@pytest.mark.parametrize("fixture", ["z1_totaro", "graph_4_2"])
def test_cli_trace_at_53_bits_lists_the_resolved_samples(fixture, tmp_path, capsys):
    # a Moebius locus runs into a zero (t = 1 of 1 - 1/t and 1 - t) or a
    # finite pole (t = 2 of (t - 4)/(t - 2)) that 53 bits do not resolve;
    # the grid points next to it are dropped, not refused
    code, out, _ = _run(capsys, ["trace", "--fixture", fixture,
                                 "--precision", "53", "--export", str(tmp_path)])
    assert code == 0
    rec = json.loads(out)["cycles"][fixture]
    rows = (tmp_path / f"{fixture}_paths.csv").read_text().splitlines()[2:]
    assert len(rows) == rec["path_samples"]
    counts = [[row.split(",")[1] for row in rows].count(c) for c in "123"]
    assert 0 < min(c for c in counts if c) < TRACE_GRID_DEFAULT + 1
    assert max(float(row.rsplit(",", 1)[1]) for row in rows) < 2.0 ** (-53 / 3)


def test_cli_text_format(capsys):
    code, out, _ = _run(capsys, ["check", "--fixture", "graph_4_2",
                                 "--precision", "128", "--format", "text"])
    assert code == 0
    assert "graph_4_2" in out and "proper" in out


def test_cli_determinism_regulator(capsys):
    argv = ["regulator", "--fixture", "z1_totaro", "--precision", "128",
            "--seed", "7"]
    code1, out1, _ = _run(capsys, argv)
    code2, out2, _ = _run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    rec = json.loads(out1)["cycles"]["z1_totaro"]
    assert rec["kind"] == "regulator"
    assert abs(float(rec["re"]) - 1.6449340668) < 1e-9


def test_cli_torsion_chain(capsys):
    code, out, _ = _run(capsys, ["torsion", "--fixture", "z1_totaro",
                                 "--precision", "128", "--max-order", "200"])
    assert code == 0
    rec = json.loads(out)["cycles"]["z1_totaro"]
    assert rec["torsion"]["order"] == 24
    assert rec["torsion"]["certificate"] == "-1/24"


def test_cli_regulator_two_cube_intersection(capsys, trace_log):
    # the count is read from the report that accepted the schedule, so every
    # trace happens inside the schedule search
    traced_in_search = trace_log("chowreg.cli")
    code, out, _ = _run(capsys, ["regulator", "--fixture", "graph_4_2",
                                 "--precision", "128"])
    assert code == 0
    rec = json.loads(out)["cycles"]["graph_4_2"]
    assert rec["kind"] == "intersection_number"
    assert rec["count"] == 0
    assert traced_in_search and all(traced_in_search)


POINTS_TEXT = """\
field cyclotomic(1)
cycle pt n=1 p=1
component mult=1 2
component mult=-1 3
"""


@pytest.mark.parametrize("command", ["regulator", "torsion"])
def test_cli_point_level_cycle_reports_its_logs(command, tmp_path, capsys):
    # a point-level cycle in the 1-cube has a breakdown of one perturbed log
    # per point: log 2 - log 3, which is no torsion value
    src = tmp_path / "points.cyc"
    src.write_text(POINTS_TEXT)
    code, out, _ = _run(capsys, [command, str(src), "--precision", "128"])
    assert code == 0
    rec = json.loads(out)["cycles"]["pt"]
    with workprec(128):
        assert abs(mp.mpf(rec["re"]) - mp.log(mp.mpf(2) / 3)) < 1e-29
        assert mp.mpf(rec["im"]) == 0
        assert 0 < float(rec["error"]) < 1e-30
        logs = [mp.mpf(e["log"]["re"]) for e in rec["breakdown"]]
        assert abs(logs[0] - mp.log(2)) < 1e-29
        assert abs(logs[1] - mp.log(3)) < 1e-29
    assert [(e["point"], e["mult"]) for e in rec["breakdown"]] == [
        ("+1 * (2)", 1), ("-1 * (3)", -1)]
    if command == "torsion":
        assert rec["torsion"]["order"] is None


def test_cli_trace_writes_the_mccarthy_crossing(tmp_path, capsys):
    # the one cut crossing of McCarthy's Moebius first locus, found from the
    # crossing polynomial of its chart
    code, out, _ = _run(capsys, ["trace", "--fixture", "mccarthy_counterexample",
                                 "--precision", "128", "--export", str(tmp_path)])
    assert code == 0
    assert json.loads(out)["cycles"]["mccarthy_counterexample"][
        "intersections"] == 1
    rows = (tmp_path / "mccarthy_counterexample_intersections.csv"
            ).read_text().splitlines()
    assert rows[2:] == ["0,1,2,0.15523860144009159461,0.027150411628173839557,-1"]


def test_cli_normalize_round_trips_a_normalized_cycle(capsys):
    code, out, _ = _run(capsys, ["normalize", "--fixture", "z1_totaro",
                                 "--precision", "128"])
    assert code == 0
    rec = json.loads(out)["cycles"]["z1_totaro"]
    assert (rec["n"], rec["p"], rec["normalized"]) == (3, 2, True)
    (Z,) = parse_cycle_file(rec["cycle"])
    assert [c.key() for c in Z.components] == [
        c.key() for c in load_fixture("z1_totaro").components]
