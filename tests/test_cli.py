import json

import pytest

from chowreg import CycleParseError, parse_cycle_file, serialize_cycles
from chowreg.cli import main
from chowreg.fixtures import FIXTURES, fixture_names, load_fixture

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
                               "petras_zeta5", "z1_totaro", "z_minus1"]
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


def test_cli_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cyc"
    bad.write_text("field cyclotomic(1)\ncycle c n=2 p=1\ncomponent mult=1 t\n")
    code, _, err = _run(capsys, ["check", str(bad), "--precision", "128"])
    assert code == 2
    assert json.loads(err)["error"]["class"] == "parse"


def test_cli_properness_exit_code(tmp_path, capsys):
    improper = tmp_path / "improper.cyc"
    improper.write_text(
        "field cyclotomic(1)\ncycle w n=2 p=1\ncomponent mult=1 t ; 1-t\n")
    code, _, err = _run(capsys, ["boundary", str(improper), "--precision", "128"])
    assert code == 3
    assert json.loads(err)["error"]["class"] == "properness"


def test_cli_precision_exit_code(capsys):
    code, _, err = _run(capsys, ["regulator", "--fixture", "z1_totaro",
                                 "--precision", "64"])
    assert code == 6
    error = json.loads(err)["error"]
    assert error["class"] == "precision"
    assert "64 bits" in error["message"]


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
