import dataclasses
import pickle
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kkdamp import _fmt
from kkdamp import model as md
from kkdamp import scenario as sn
from kkdamp import solver as sv
from kkdamp.errors import ParseError, ValidationError

GOOD = """\
# demo scenario
name = demo
phi = power:1
a = 0.5
b = 0.2
x_lo = 0.0
x_hi = 6.283185307179586
n_cells = 64
boundary = periodic
t_end = 0.4
n_outputs = 9
init = sine_radial
init.mean = 0.5
init.amplitude = 0.2
check.decay = on
check.decay.p = 2
check.containment = on
check.invariants = on
snapshots = all
"""


def test_parse_good_scenario():
    sc = sn.parse_scenario_text(GOOD)
    assert sc.name == "demo"
    assert sc.get_float("a") == 0.5
    assert sc.get("check.decay") is True
    assert sc.get("check.decay.weighted", False) is False
    phi = sc.phi_model()
    assert phi.label == "power:1"
    grid = sc.grid()
    assert grid.n_cells == 64
    cfg = sc.solver_config()
    assert cfg.t_end == 0.4
    assert len(cfg.output_times) == 8  # t = 0 is implicit


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        sn.parse_scenario_text("name = x\nbroken line\n")
    assert exc.value.line == 2

    with pytest.raises(ParseError) as exc:
        sn.parse_scenario_text("name = x\nwho_knows = 1\n")
    assert exc.value.line == 2 and exc.value.col == 1
    assert "unknown key" in str(exc.value)


def test_parse_value_errors():
    # values are typed when the file is parsed, not when they are used
    with pytest.raises(ParseError) as exc:
        sn.parse_scenario_text("name = x\na = nope\n")
    assert exc.value.line == 2
    assert exc.value.col == 5

    with pytest.raises(ParseError):
        sn.parse_scenario_text("name = x\nn_cells = 1.5\n")

    with pytest.raises(ParseError):
        sn.parse_scenario_text("name = x\ncheck.decay = maybe\n")


def test_parse_rejects_bad_keys_and_duplicates():
    with pytest.raises(ParseError):
        sn.parse_scenario_text("name = x\nBad-Key = 1\n")
    with pytest.raises(ParseError):
        sn.parse_scenario_text("name = x\na = 1\na = 2\n")
    with pytest.raises(ParseError):
        sn.parse_scenario_text("name = x\na =\n")
    with pytest.raises(ValidationError):
        sn.parse_scenario_text("a = 1\n")  # missing name
    with pytest.raises(ParseError, match="unknown key 'seed'"):
        sn.parse_scenario_text("name = x\nseed = 1\n")  # nothing reads a seed


def test_unknown_phi_family_is_a_parse_error():
    sc = sn.parse_scenario_text("name = x\nphi = mystery:1\n")
    with pytest.raises(ParseError) as exc:
        sc.phi_model()
    assert exc.value.line == 2


def test_damping_order_is_validated():
    sc = sn.parse_scenario_text("name = x\na = 0.1\nb = 0.7\n")
    with pytest.raises(ValidationError, match="C2"):
        sc.damping()


def test_unknown_init_profile():
    text = GOOD.replace("init = sine_radial", "init = vortex")
    with pytest.raises(ParseError, match="^" + re.escape(
            "line 12, col 8: init: expected constant/sine_radial/riemann_step/from_file, "
            "got 'vortex'") + "$"):
        sn.parse_scenario_text(text)


def test_negative_radius_profile_rejected():
    text = GOOD.replace("init.mean = 0.5", "init.mean = 0.1")
    sc = sn.parse_scenario_text(text)
    with pytest.raises(ValidationError, match="init.amplitude"):
        sc.initial_field(sc.grid())


def test_run_scenario_writes_artifacts(tmp_path):
    sc = sn.parse_scenario_text(GOOD)
    res = sn.run_scenario(sc, out_root=tmp_path)
    assert res.passed
    assert set(res.checks) == {"decay", "containment", "invariants"}
    out = tmp_path / "demo"
    assert (out / "demo_t0.tsv").exists()
    assert (out / "demo_t0.4.tsv").exists()
    assert (out / "demo_norms.tsv").exists()
    manifest = (out / "demo_manifest.txt").read_text()
    assert "check.decay.passed = true" in manifest
    assert "passed = true" in manifest
    assert "name = demo" in manifest
    # snapshot columns round trip
    snap = sv.read_snapshot(out / "demo_t0.4.tsv")
    assert np.array_equal(snap["u"], res.trajectory[-1].u)


def test_an_auto_c1_is_the_smallest_initial_z(tmp_path):
    text = GOOD.replace("init.amplitude = 0.2", "init.amplitude = 0.2\ninit.angle_amplitude = 0.1")
    text += "check.containment.c1 = auto\n"
    sc = sn.parse_scenario_text(text)
    res = sn.run_scenario(sc, out_root=tmp_path)
    init = res.trajectory[0]
    z0 = md.z_invariant(init.u, init.v)
    manifest = (tmp_path / "demo" / "demo_manifest.txt").read_text().splitlines()
    assert f"check.containment.c1 = {_fmt(np.min(z0))}" in manifest


def test_an_auto_c0_holds_the_initial_field_under_a_decreasing_phi(tmp_path):
    # phi = 1 - r/2 is largest at the smallest radius, not at the top one
    from types import SimpleNamespace

    from kkdamp.region import trajectory_containment

    rs = np.linspace(0.0, 1.0, 41)
    table = tmp_path / "falling.tsv"
    np.savetxt(table, np.column_stack([rs, 1.0 - rs / 2.0]))
    s = sn.set_up(sn.parse_scenario_text(GOOD.replace("power:1", f"tabulated:{table}")))
    options = s.checks["containment"]
    assert options["sigma"].c0 == pytest.approx(0.85, abs=1e-3)  # not phi(top r) = 0.65
    start = SimpleNamespace(times=[s.init.t], fields=[s.init])
    assert trajectory_containment(start, phi=s.phi, **options).max_violation == 0.0


def test_run_scenario_final_snapshot_mode(tmp_path):
    text = GOOD.replace("snapshots = all", "snapshots = final")
    res = sn.run_scenario(sn.parse_scenario_text(text), out_root=tmp_path)
    out = tmp_path / "demo"
    assert not (out / "demo_t0.tsv").exists()
    assert (out / "demo_t0.4.tsv").exists()


def test_reruns_are_byte_identical(tmp_path):
    sc = sn.parse_scenario_text(GOOD)
    res1 = sn.run_scenario(sc, out_root=tmp_path / "one")
    res2 = sn.run_scenario(sc, out_root=tmp_path / "two")
    for p1, p2 in zip(sorted(res1.artifacts), sorted(res2.artifacts)):
        b1, b2 = p1.read_bytes(), p2.read_bytes()
        if p1.name.endswith("_manifest.txt"):
            strip = lambda b: b"\n".join(
                ln for ln in b.splitlines() if not ln.startswith(b"#")
            )
            assert strip(b1) == strip(b2)
        else:
            assert b1 == b2


SHIPPED = sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.cfg"))


@pytest.mark.filterwarnings("ignore:const.1 fails the structure condition:UserWarning")
@pytest.mark.parametrize("path", [*SHIPPED, "tabulated"],
                         ids=[*(p.stem for p in SHIPPED), "tabulated"])
def test_set_up_pickles_and_marches_bit_identically(tmp_path, path):
    # a SetUp is a plain value: `run` sends it to a worker process
    if path == "tabulated":
        rs = np.linspace(0.0, 4.0, 41)
        s = dataclasses.replace(sn.set_up(sn.parse_scenario_text(GOOD), tmp_path),
                                phi=md.PhiModel.tabulated(rs, rs + 0.1 * rs**2))
    else:
        s = sn.set_up(sn.parse_scenario(path), tmp_path)
    copy = pickle.loads(pickle.dumps(s))
    assert (copy.phi.label, copy.phi.phi0, copy.out_dir) == (s.phi.label, s.phi.phi0, s.out_dir)
    runs = [sv.simulate(x.init, x.phi, x.damping, x.config) for x in (s, copy)]
    assert runs[0].n_steps == runs[1].n_steps > 0
    for f, g in zip(*runs):
        assert f.t == g.t and np.array_equal(f.u, g.u) and np.array_equal(f.v, g.v)


@pytest.mark.parametrize("name", [".", "..", "../x", "a/b", "/abs", "a\0b"])
def test_name_must_be_one_file_name_component(name):
    text = f"phi = power:1\nname = {name}\n"
    message = f"line 2, col 8: name: expected one file-name component, got {name!r}"
    with pytest.raises(ParseError, match="^" + re.escape(message) + "$"):
        sn.parse_scenario_text(text)
    with pytest.raises(ParseError, match="^" + re.escape(f"demo.cfg: {message}") + "$") as exc:
        sn.parse_scenario_text(text, path="demo.cfg")
    assert (exc.value.line, exc.value.col, exc.value.path) == (2, 8, "demo.cfg")


def test_env_var_overrides_output_root(tmp_path, monkeypatch):
    monkeypatch.setenv("KKD_OUTPUT_DIR", str(tmp_path / "env_root"))
    sc = sn.parse_scenario_text(GOOD)
    res = sn.run_scenario(sc, out_root=tmp_path / "ignored")
    assert (tmp_path / "env_root" / "demo").exists()
    assert not (tmp_path / "ignored" / "demo").exists()
    assert res.out_dir == tmp_path / "env_root" / "demo"


def test_set_up_writes_nothing_and_the_march_makes_the_output_directory(tmp_path,
                                                                        monkeypatch):
    monkeypatch.delenv("KKD_OUTPUT_DIR", raising=False)
    s = sn.set_up(sn.parse_scenario_text(GOOD), tmp_path / "out")
    assert not (tmp_path / "out").exists()
    assert s.out_dir == tmp_path / "out" / "demo"
    res = sn.run_set_up(s)
    assert sorted(res.artifacts) == sorted(s.out_dir.iterdir())
    assert len(res.artifacts) == 11  # 9 snapshots, the norm series and the manifest


def test_a_set_up_holds_its_initial_field_and_no_other_state_sized_array(tmp_path):
    # the grid computes its cell centres where they are read, so the set-up's
    # grid keeps no n-cell array; with cached centres this read 3.0
    n = 16 * sv.TILE
    sc = sn.parse_scenario_text(GOOD.replace("n_cells = 64", f"n_cells = {n}"))
    sn.set_up(sc, tmp_path)  # lazy imports and caches
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        s = sn.set_up(sc, tmp_path)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert s.init.u.nbytes == 8 * n
    # the field's u and v, and beside them only small objects (2.004 here)
    assert retained <= 2.1 * s.init.u.nbytes


def test_riemann_and_constant_profiles():
    text = """\
name = rp
phi = power:1
a = 0.3
b = 0.1
x_lo = -2.0
x_hi = 4.0
n_cells = 64
boundary = outflow
t_end = 0.1
init = riemann_step
init.u_left = 0.6
init.v_left = 0.6
init.u_right = 0.2
init.v_right = 0.2
init.x_jump = 0.0
"""
    sc = sn.parse_scenario_text(text)
    f = sc.initial_field(sc.grid())
    assert f.u[0] == 0.6 and f.u[-1] == 0.2

    text2 = """\
name = cp
phi = const:1
a = 0.3
b = 0.3
x_lo = 0.0
x_hi = 1.0
n_cells = 32
t_end = 0.1
init = constant
init.u = 0.4
init.v = 0.3
"""
    sc2 = sn.parse_scenario_text(text2)
    f2 = sc2.initial_field(sc2.grid())
    assert np.all(f2.u == 0.4) and np.all(f2.v == 0.3)


def test_init_from_snapshot_file(tmp_path):
    sc = sn.parse_scenario_text(GOOD)
    res = sn.run_scenario(sc, out_root=tmp_path)
    snap_path = tmp_path / "demo" / "demo_t0.4.tsv"
    text = f"""\
name = resumed
phi = power:1
a = 0.5
b = 0.2
x_lo = 0.0
x_hi = 6.283185307179586
n_cells = 64
t_end = 0.1
init = from_file
init.file = {snap_path}
"""
    sc2 = sn.parse_scenario_text(text)
    f = sc2.initial_field(sc2.grid())
    assert np.array_equal(f.u, res.trajectory[-1].u)


@pytest.mark.parametrize(
    "grid_lines, message",
    [
        ("x_hi = 1.0\nboundary = periodic", "cell centers differ"),
        ("x_hi = 6.283185307179586\nboundary = outflow",
         "file has boundary periodic, grid has outflow"),
    ],
    ids=["other-coordinates", "other-boundary"],
)
def test_init_from_file_refuses_a_snapshot_of_another_grid(tmp_path, grid_lines, message):
    # a 64-cell [0, 2 pi] periodic snapshot, loaded into a 64-cell grid
    # with other cell centers or another boundary
    grid = sv.Grid1D(0.0, 2 * np.pi, 64, "periodic")
    snap = sv.write_snapshot(
        sv.StateField(grid, np.full(64, 0.3), np.full(64, 0.4)), md.PhiModel.power(1.0), "src",
        tmp_path,
    )
    text = f"""\
name = resumed
phi = power:1
a = 0.5
b = 0.2
x_lo = 0.0
{grid_lines}
n_cells = 64
t_end = 0.1
init = from_file
init.file = {snap}
"""
    sc = sn.parse_scenario_text(text)
    with pytest.raises(ValidationError, match=message) as exc:
        sc.initial_field(sc.grid())
    assert exc.value.field == "init.file"


def test_mollified_initial_data():
    text = GOOD.replace("init.amplitude = 0.2", "init.amplitude = 0.2\ninit.mollify_eps = 0.5")
    sc = sn.parse_scenario_text(text)
    raw = sn.parse_scenario_text(GOOD).initial_field(sc.grid())
    smooth = sc.initial_field(sc.grid())
    assert float(np.max(np.abs(smooth.u))) < float(np.max(np.abs(raw.u)))


_LINE = st.one_of(
    st.text(max_size=30),
    st.builds(
        "{} = {}".format,
        st.sampled_from(sorted(sn._KNOWN_KEYS) + ["bogus", "Name", "a b"]),
        st.text(max_size=12),
    ),
)

# a named scenario of distinct known keys, so that some inputs parse
_SCENARIO = st.dictionaries(
    st.sampled_from(sorted(sn._KNOWN_KEYS)),
    st.sampled_from(["1", "-2", "0.5", "inf", "nan", "on", "off", "auto", "1,2", "abc"]),
    max_size=4,
).map(lambda d: "".join(f"{k} = {v}\n" for k, v in {"name": "demo", **d}.items()))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.one_of(st.text(), st.lists(_LINE, max_size=12).map("\n".join), _SCENARIO))
def test_parser_returns_a_scenario_or_a_typed_error(text):
    try:
        sc = sn.parse_scenario_text(text)
    except (ParseError, ValidationError):
        return
    assert isinstance(sc, sn.Scenario)
    for key, entry in sc.entries.items():  # every value was typed by the parser
        convert, _ = sn._KNOWN_KEYS[key]
        assert repr(sc.get(key)) == repr(convert(entry.text))


def test_the_readme_key_table_lists_every_key_with_its_type():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("| Key | Type | Default | Meaning |\n")[1].split("\n\n")[0]
    rows = re.findall(r"^\| `([a-z0-9_.]+)` \| ([^|]+) \|", section, flags=re.M)
    table = {key: noun.strip() for key, noun in rows}
    assert len(table) == len(rows)  # no key twice
    assert table == {key: noun for key, (_, noun) in sn._KNOWN_KEYS.items()}


def test_set_up_prepares_only_the_checks_that_are_on(tmp_path, monkeypatch):
    prepared = []
    monkeypatch.setattr(sn, "CHECKS", tuple(
        c._replace(prepare=lambda s, name=c.name: prepared.append(name) or name)
        for c in sn.CHECKS))
    text = GOOD.replace("check.containment = on", "check.containment = off").replace(
        "check.invariants = on\n", "")
    s = sn.set_up(sn.parse_scenario_text(text), tmp_path)
    assert prepared == ["decay"]
    assert s.checks == {"decay": "decay"}


def test_every_check_key_belongs_to_exactly_one_check():
    owners = {}
    for check in sn.CHECKS:
        for key in check.keys:
            assert key == f"check.{check.name}" or key.startswith(f"check.{check.name}.")
            owners.setdefault(key, []).append(check.name)
    assert {key for key in sn._KNOWN_KEYS if key.startswith("check.")} == set(owners)
    assert all(len(names) == 1 for names in owners.values())


def test_a_byte_that_is_not_utf8_is_a_parse_error_at_its_position(tmp_path):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(b"name = demo\nphi = caf\xe9\n")
    with pytest.raises(ParseError, match="^" + re.escape(
            f"{path}: line 2, col 10: byte 0xe9 is not UTF-8") + "$"):
        sn.parse_scenario(path)
