"""The package front: lazy exports, a CLI that screens relations without
numpy, and the one policy module of tolerances and caps."""

import ast
import json
import subprocess
import sys

import causaldeco
from causaldeco import policy
from test_cli import REPO_ROOT, source_env, write_relation

LIBRARY_MODULES = sorted(
    p.stem for p in (REPO_ROOT / "src" / "causaldeco").glob("*.py")
    if p.stem not in ("__init__", "cli"))

# each step of a fresh interpreter, and whether numpy was loaded after it
FRESH = r"""
import contextlib, io, json, sys
steps = {}
import causaldeco
steps["import causaldeco"] = "numpy" in sys.modules
registered = sorted(m for m in sys.modules if m.startswith("causaldeco."))
import causaldeco.cli
steps["import causaldeco.cli"] = "numpy" in sys.modules
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["check", sys.argv[1], "--json"], ["check", sys.argv[2]],
                 ["lattice", sys.argv[1]], ["--help"]):
        try:
            codes.append(causaldeco.cli.main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
        steps[" ".join(argv[:1] + argv[2:])] = "numpy" in sys.modules
print(json.dumps({"steps": steps, "codes": codes, "registered": registered}))
"""


def test_screening_commands_load_no_numpy(tmp_path):
    fans = write_relation(tmp_path / "fans.json",
                          causaldeco.overlapping_fans_relation())
    c3 = write_relation(tmp_path / "c3.json", causaldeco.c3_relation())
    proc = subprocess.run([sys.executable, "-c", FRESH, fans, c3],
                          capture_output=True, text=True, env=source_env(),
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["steps"] == {
        "import causaldeco": False, "import causaldeco.cli": False,
        "check --json": False, "check": False, "lattice": False,
        "--help": False}
    assert got["codes"] == [0, 1, 0, 0]
    assert got["registered"] == [f"causaldeco.{m}" for m in LIBRARY_MODULES]


def test_exports_are_their_home_modules_objects():
    for name in causaldeco.__all__:
        home = sys.modules[f"causaldeco.{causaldeco._HOME[name]}"]
        obj = getattr(causaldeco, name)
        assert obj is getattr(home, name), name
        assert getattr(obj, "__module__", home.__name__) == home.__name__
    star = {}
    exec("from causaldeco import *", star)
    assert set(causaldeco.__all__) <= set(star)
    for module in LIBRARY_MODULES:
        assert f"causaldeco.{module}" in sys.modules
    # the function, as before: its module is reached through sys.modules
    assert causaldeco.decompose is \
        sys.modules["causaldeco.decompose"].decompose


# every tolerance and cap, with its value and the modules that have
# always exported it
POLICY = {
    "SVD_RANK_REL": (1e-9, "algebra"), "COMM_REL_TOL": (1e-9, "algebra"),
    "CLUSTER_REL": (1e-7, "algebra"), "RESIDUAL_TOL": (1e-8, "algebra"),
    "GENERIC_RESIDUAL_TOL": (1e-7, "algebra"),
    "ISOMETRY_RANK_REL": (1e-8, "algebra"),
    "COMMUTANT_DIM_CAP": (32, "algebra"),
    "INFLUENCE_REL_TOL": (1e-9, "causal"), "CHOI_TRACE_TOL": (1e-8, "causal"),
    "CHANNEL_UNITARITY_TOL": (1e-8, "causal"),
    "GATE_UNITARITY_TOL": (1e-9, "circuits"),
    "FRAME_DIM_CAP": (4096, "circuits"),
    "RECOMPOSE_TOL": (1e-8, "decompose"), "INCLUSION_TOL": (1e-6, "decompose"),
    "DIM_CAP": (256, "tensorspace"), "MAX_CONCEPTS": (4096, "lattice"),
}


def test_policy_holds_every_tolerance_under_its_old_names():
    assert {n for n in vars(policy) if n.isupper()} == set(POLICY)
    for name, (value, home) in POLICY.items():
        assert getattr(policy, name) == value, name
        assert getattr(sys.modules[f"causaldeco.{home}"], name) \
            is getattr(policy, name), name


def test_every_policy_value_is_read_outside_policy():
    # an import alone does not count: a gate deleted later must take its
    # tolerance with it
    loads = set()
    for path in (REPO_ROOT / "src" / "causaldeco").glob("*.py"):
        if path.stem != "policy":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            loads |= {node.id for node in ast.walk(tree)
                      if isinstance(node, ast.Name)
                      and isinstance(node.ctx, ast.Load)}
    assert {n for n in vars(policy) if n.isupper()} - loads == set()
