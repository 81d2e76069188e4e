"""Hand-written mutants of kimdiff, each of which tier-1 must kill.

Each entry of MUTANTS is one text edit of one file: the old text must occur
exactly once in it.  The script copies the checkout (without .git and the
ignored outputs) to a temporary directory, checks that the named tests pass
there unmutated, and then applies each edit in turn and runs
``pytest -x -q`` on the entry's test ids.  A mutant is killed when pytest
reports a failed test.  Every named id is part of tier-1, so a mutant killed
here also fails a tier-1 run.  Run it from any directory, with no arguments
(about a minute on two cores):

    python tests/mutants.py

It exits 1 when a mutant survives, when an old text is missing or occurs more
than once (a refactor that moves the code must update its entry), or when
pytest errs in any other way, such as on a test id that no longer exists.
A mutant that no test kills yet belongs on ROADMAP.md, under the item that
would kill it, until a test does; every entry here is killed.  Nothing is
written into the checkout.  pytest does not collect this file.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# what the copy leaves out: version control and what builds, tests and runs leave behind
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                 "*.egg-info", ".bench_work", "kimdiff-results", "output")

Mutant = namedtuple("Mutant", ["name", "file", "old", "new", "tests"])

CLI = "tests/test_cli.py::"
GATE = "tests/test_scenario.py::"
SCENARIO = "src/kimdiff/scenario.py"

MUTANTS = [
    # eighteen from the split of the test files by module (CHANGES.md)
    Mutant("_exceeds passes what exceeds", SCENARIO,
           "    if value <= TOLERANCES[key] * scale:",
           "    if value >= TOLERANCES[key] * scale:",
           [GATE + "test_gate_names_each_conservation_violation"]),
    Mutant("_exceeds lets a NaN pass", SCENARIO,
           "    if value <= TOLERANCES[key] * scale:",
           "    if not value > TOLERANCES[key] * scale:",
           [GATE + "test_gate_names_each_conservation_violation"]),
    Mutant("a failed write leaves the files made", SCENARIO,
           "            _remove(made)\n            _fail(\"out\", f\"cannot write",
           "            _fail(\"out\", f\"cannot write",
           [CLI + "test_cli_input_errors_exit_one_without_traceback"]),
    Mutant("a failed mkdir leaves the directories made", SCENARIO,
           "        _remove(made)\n        _fail(\"out\", f\"cannot create directory",
           "        _fail(\"out\", f\"cannot create directory",
           [CLI + "test_cli_input_errors_exit_one_without_traceback"]),
    Mutant("an empty out is accepted", SCENARIO,
           "    if not cfg[\"out\"]:",
           "    if False:",
           [CLI + "test_cli_input_errors_exit_one_without_traceback"]),
    Mutant("JSON keys unsorted", SCENARIO,
           "json.dumps(file[1], indent=2, sort_keys=True,",
           "json.dumps(file[1], indent=2,",
           [GATE + "test_json_writer_matches_json_dump"]),
    Mutant("max in place of np.maximum drops a NaN gap", SCENARIO,
           "np.maximum(row.a_diff, row.b_diff)",
           "max(row.a_diff, row.b_diff)",
           [CLI + "test_fd_gates_name_a_nan_gap"]),
    Mutant("no shared-profile check", SCENARIO,
           "        if f\"{a:g}\" == f\"{b:g}\":",
           "        if False:",
           [CLI + "test_malformed_field_exits_one_and_names_it"]),
    Mutant("_number accepts booleans", SCENARIO,
           "if isinstance(value, (int, float)) and not isinstance(value, bool):",
           "if isinstance(value, (int, float)):",
           [CLI + "test_malformed_field_exits_one_and_names_it"]),
    Mutant("the dip check reads t = 0", SCENARIO,
           "    low = positive.density.min(axis=1)",
           "    low = sols.density.min(axis=1)",
           [GATE + "test_gate_names_first_dip_after_the_initial_row"]),
    Mutant("main returns argparse's exit code", "src/kimdiff/cli.py",
           "        return 1 if exc.code else 0",
           "        return exc.code",
           [CLI + "test_cli_input_errors_exit_one_without_traceback"]),
    Mutant("no MemoryError branch", "src/kimdiff/cli.py",
           "    except MemoryError as exc:",
           "    except () as exc:",
           [CLI + "test_cli_input_errors_exit_one_without_traceback"]),
    Mutant("load_scenario ignores out", SCENARIO,
           "    if out is not None:\n        cfg[\"out\"] = out",
           "    if False:\n        cfg[\"out\"] = out",
           [CLI + "test_cli_input_errors_exit_one_without_traceback"]),
    Mutant("atom data take the norm at t = 0", SCENARIO,
           "if scenario.initial.atoms else 0.0",
           "if False else 0.0",
           [CLI + "test_atom_data_take_the_norm_at_the_first_positive_time"]),
    Mutant("fd_mass_drift without the initial mass", SCENARIO,
           "abs(st.total_mass() - mass0)",
           "abs(st.total_mass())",
           [CLI + "test_shipped_configs_write_strict_json"]),
    Mutant("build_parser not cached", "src/kimdiff/cli.py",
           "@functools.cache  # one parser per process",
           "# one parser per process",
           [CLI + "test_main_parses_each_call_alone"]),
    Mutant("conservation_residuals without the t = 0 mass", "src/kimdiff/evolution.py",
           "    mass[start] = mass0\n",
           "",
           ["tests/test_evolution.py::test_conservation_interior_atom_constancy"]),
    Mutant("times need not increase", SCENARIO,
           "        if b <= a:",
           "        if False:",
           [CLI + "test_malformed_field_exits_one_and_names_it"]),
    # later ones
    Mutant("solve_fd without its L1 check", "src/kimdiff/fd.py",
           "        if not l1 <= (1.0 + 1e-6) * l1_0:",
           "        if False:",
           ["tests/test_fd.py::test_contour_sum_above_the_initial_l1_norm_raises"]),
    Mutant("xi_bounds without Pi's roots", "src/kimdiff/model.py",
           "np.r_[0.0, 1.0, np.clip(P.polyroots(self.pi_coeffs).real, 0.0, 1.0)]",
           "np.r_[0.0, 1.0]",
           ["tests/test_model.py::test_xi_bounds_reach_the_root_of_pi"]),
    Mutant("a plain property for fixation", "src/kimdiff/model.py",
           "    @cached_property\n    def fixation(self):",
           "    @property\n    def fixation(self):",
           [CLI + "test_commands_evaluate_only_what_they_write"]),
    Mutant("tables read outside [0, 1]", "src/kimdiff/_quadrature.py",
           "    if not np.all(inside):",
           "    if False:",
           ["tests/test_fixation.py::test_off_grid_values_match_closed_forms"]),
    Mutant("an eager identity table", SCENARIO,
           "        \"initial_residual\": evolution.initial_residual(coeffs),",
           "        \"initial_residual\": evolution.initial_residual(coeffs)"
           " + 0.0 * coeffs.basis.identity_residuals.max(),",
           [CLI + "test_commands_evaluate_only_what_they_write"]),
    Mutant("eigenvalues off by 1e-9 relative", "src/kimdiff/spectral.py",
           "        eigenvalues=lam,",
           "        eigenvalues=lam * (1 + 1e-9),",
           [CLI + "test_shipped_configs_write_strict_json"]),
    Mutant("the last eigenpair dropped", "src/kimdiff/spectral.py",
           "[1][:, :n_modes]",
           "[1][:, :n_modes - 1]",
           ["tests/test_evolution.py::test_last_of_64_neutral_modes_evolves_exactly"]),
    Mutant("the last coefficient zeroed", "src/kimdiff/evolution.py",
           "    return SpectralCoefficients(basis.pairings(init), basis, init)",
           "    return SpectralCoefficients(np.append(basis.pairings(init)[:-1], 0.0), basis, init)",
           ["tests/test_evolution.py::test_last_of_64_neutral_modes_evolves_exactly"]),
    Mutant("G's sign flipped in identity_residuals", "src/kimdiff/spectral.py",
           "model.diffusion(x) * curve + model.drift(x) * slope",
           "model.diffusion(x) * curve - model.drift(x) * slope",
           ["tests/test_spectral.py::test_weak_form_identity_holds_for_every_mode"]),
]


def _env(tree):
    """The environment in which tree's tests import kimdiff from tree/src."""
    return {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}


def _pytest(tree, targets, timeout=600):
    """Run pytest -x -q on targets in tree, importing kimdiff from its src/;
    returns the exit code and the last line of the output."""
    run = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                          *targets], cwd=tree, env=_env(tree), capture_output=True, text=True,
                         timeout=timeout)
    lines = run.stdout.strip().splitlines() or run.stderr.strip().splitlines() or [""]
    return run.returncode, lines[-1]


def main():
    problems = []
    with tempfile.TemporaryDirectory(prefix="kimdiff-mutants-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=IGNORED)
        # an installed kimdiff must not shadow the copy's
        where = subprocess.run([sys.executable, "-c", "import kimdiff; print(kimdiff.__file__)"],
                               env=_env(tree), capture_output=True, text=True).stdout.strip()
        if not where.startswith(str(tree)):
            print(f"the copy imports kimdiff from {where or 'nowhere'}, not from {tree}/src")
            return 1
        # the named tests must pass unmutated, or a failure would kill every mutant
        named = sorted({t for m in MUTANTS for t in m.tests})
        code, last = _pytest(tree, named)
        if code != 0:
            print(f"unmutated tree: pytest exit {code}: {last}")
            return 1
        print(f"unmutated tree: {last}")
        for mutant in MUTANTS:
            path = tree / mutant.file
            source = path.read_text()
            count = source.count(mutant.old)
            if count != 1:
                problems.append(mutant.name)
                print(f"STALE     {mutant.name}: old text occurs {count} times in {mutant.file}")
                continue
            path.write_text(source.replace(mutant.old, mutant.new))
            start = time.perf_counter()
            code, last = _pytest(tree, mutant.tests)
            path.write_text(source)
            took = f"{time.perf_counter() - start:5.1f} s"
            if code == 1:
                print(f"killed    {took}  {mutant.name}")
            else:
                problems.append(mutant.name)
                verdict = "SURVIVES" if code == 0 else f"ERROR (pytest exit {code})"
                print(f"{verdict}  {took}  {mutant.name}: {last}")
    print(f"{len(MUTANTS)} mutants, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
