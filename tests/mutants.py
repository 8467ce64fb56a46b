"""The mutation catalogue: each entry breaks the program in one place, and
names the tests that must then fail.

Run from the repository root:

    python3 tests/mutants.py

An entry is (file, old text, new text, pytest selection). Each old text must
occur exactly once in its file. Each mutant is applied alone to a copy of the
tree, with the other files as they are, and ``python -m pytest -x -q
SELECTION`` is run in that copy, with the copy's ``src`` on ``PYTHONPATH``,
no bytecode written and no plugin loaded by entry point. A mutant is killed
when its selection fails (pytest exit status 1). A mutant that survives, a
selection that does not run (any other status, or a run beyond TIMEOUT_S),
an old text that is missing or occurs more than once, and a selection that
names no test (a file that does not define the name at its top level, by def
or by assignment) are each reported, and make the exit status 1. Standard
library only.
"""
from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                                ".benchmarks")

CLI = "src/qprop/cli.py"
PROPENSITY = "src/qprop/propensity.py"
DECISION = "src/qprop/decision.py"
DRAWS = "src/qprop/_draws.py"
QUBITS = "src/qprop/qubits.py"
RECORD = "src/qprop/_record.py"
TEST_CLI = "tests/test_cli.py::"
TEST_RECORD = "tests/test_record.py::"
TEST_QUBITS = "tests/test_qubits.py::"
TEST_DECISION = "tests/test_decision.py::"
TEST_KERNELS = "tests/test_kernels.py::"
TEST_PROPENSITY = "tests/test_propensity.py::"
COMPUTED = TEST_QUBITS + "test_every_computed_value_is_a_read_only_complex128_array_of_its_shape"
PICK = TEST_KERNELS + "test_vectorised_pick_follows_sample_index"
SWEEP = TEST_KERNELS + "test_equivalence_sweep_equals_the_oracle_bit_for_bit"
CHILD_EXIT = TEST_CLI + "test_the_child_leaves_by_os_exit_on_every_path"
SPLIT_FAULTS = TEST_CLI + "test_a_value_beyond_the_float_range_in_the_childs_spans_exits_2"
ZIGGURAT = "tests/test_draws.py::test_normals_reach_the_tail_and_the_wedge"
UNCHECKED = TEST_RECORD + "test_unchecked_builds_what_the_constructor_builds"
SIGINT_MASK = TEST_CLI + "test_the_child_blocks_sigint_and_this_thread_unblocks_it"

# The output stage: the forked child, its pipe and the chunks, a grid's check
# at its extreme rows, the interrupt and its mask, and the number formats;
# where the two processes run; the scale, pair and grid rules of the models;
# the tolerance rule; the edges of the CLI: output that cannot be written,
# the split writer, the goldens and usage errors; the read-only computed
# arrays and the records; the ziggurat of sample's draws; and each rule of
# the qubit engine, the decision circuits and the propensity curves that one
# library test pins alone.
MUTANTS = [
    # The child leaves by interpreter exit, or goes on as a second caller.
    (CLI, "os._exit(0)", "sys.exit(0)", CHILD_EXIT),
    (CLI, "os._exit(0)", "return", CHILD_EXIT),
    # The child is not reaped, or not killed while it formats.
    (CLI, "os.waitpid(pid, 0)", "pass",
     TEST_CLI + "test_split_output_is_byte_identical"),
    (CLI, "os.kill(pid, 9)", "pass",
     TEST_CLI + "test_a_parent_that_fails_early_kills_a_child_held_in_a_chunk"),
    # The child formats the chunks this process formats.
    (CLI, "with _forked(chunks[1::2]", "with _forked(chunks[0::2]",
     TEST_CLI + "test_chunked_writer_matches_per_value_route"),
    # The texts a child did not send are taken to be empty.
    (CLI, "text = next(texts, None) if theirs", 'text = next(texts, "") if theirs',
     TEST_CLI + "test_a_child_that_dies_leaves_the_output_whole"),
    # A grid's check: skipped; its rows evaluated but not scanned for nan or
    # inf; an error of the rows raised as it comes, not by the serial route;
    # the last row, or the rows around each mean, left out; the serial route
    # run in reverse, so that the last column's fault is named.
    (CLI, "if not _fits([", "if False and _fits([",
     TEST_CLI + "test_values_beyond_float_range_exit_2"),
    (CLI, "all(_is_finite(column[j:j + 1])", "all(len(column[j:j + 1])", SPLIT_FAULTS),
    (CLI, "except (ValueError, ArithmeticError):\n        return False",
     "except ZeroDivisionError:\n        return False",
     TEST_CLI + "test_values_beyond_float_range_exit_2[joint-grid]"),
    (CLI, "extremes = tuple(sorted({0, n - 1, ", "extremes = tuple(sorted({0, ", SPLIT_FAULTS),
    (CLI, ", *(max(i - 1, 0) for i in above), *above}", "}",
     TEST_CLI + "test_the_check_reads_the_rows_around_each_mean"),
    (CLI, "for name, value in quantities])", "for name, value in quantities[::-1]])",
     SPLIT_FAULTS),
    (CLI, "                    pipe.flush()\n", "",
     TEST_CLI + "test_each_text_reaches_this_process_as_the_child_sends_it"),
    # The read end of the pipe is left for its finalizer.
    (CLI, 'with open(read_fd, "rb") as stream:', 'for stream in [open(read_fd, "rb")]:',
     TEST_CLI + "test_no_pipe_end_outlives_a_split_call"),
    # An interrupt ends with a traceback, or with exit status 130.
    (CLI, "except KeyboardInterrupt:", "except ArithmeticError:",
     TEST_CLI + "test_an_interrupt_ends_a_process_with_one_line_and_sigint"),
    (CLI, "signal.raise_signal(signal.SIGINT)", "pass",
     TEST_CLI + "test_an_interrupt_ends_a_process_with_one_line_and_sigint"),
    # SIGINT is not blocked in the child, or stays blocked in this thread.
    (CLI, "signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGINT])",
     "signal.pthread_sigmask(signal.SIG_BLOCK, [])", SIGINT_MASK),
    (CLI, "            signal.pthread_sigmask(signal.SIG_SETMASK, mask)   # a SIGINT", "#",
     SIGINT_MASK),
    # An odd number of chunks: the two processes format unequal shares.
    (CLI, "    count += count % 2 if count > 1 else 0\n", "",
     TEST_CLI + "test_spans_cut_an_even_number_of_equal_chunks"),
    # JSON numbers: an integer value without its .0, -0 kept as -0.0, and an
    # exponent cell (a subnormal's) left as %.12g wrote it.
    (CLI, 'bare = len(values) - text.count(".")', "bare = 0",
     TEST_CLI + "test_column_formatter_matches_per_value_route"),
    (CLI, "repr(float(cell) + 0.0)", "repr(float(cell))",
     TEST_CLI + "test_column_formatter_matches_per_value_route"),
    (CLI, 'for letter in "en":', 'for letter in "n":',
     TEST_CLI + "test_column_formatter_matches_per_value_route"),
    # The child stays on this thread's CPUs or is bound to them all, or one
    # CPU is asked to run two processes.
    (CLI, "os.sched_setaffinity(pid, [cpu for cpu in cpus if cpu != here])", "pass",
     TEST_CLI + "test_the_child_runs_off_this_threads_cpu"),
    (CLI, "if cpu != here]", "]", TEST_CLI + "test_the_child_runs_off_this_threads_cpu"),
    (CLI, " and len(cpus) != 1", "", TEST_CLI + "test_one_cpu_runs_a_large_call_in_one_process"),
    # hbar defaults to 2; a buyer's fixed price is put on the seller side; a
    # point-mass joint reaches the grid; gamma loses its 0.5; the sampled
    # protocol reads B's rows for its columns.
    (PROPENSITY, "def from_oscillator(cls, omega: float = 1.0, hbar: float = 1.0)",
     "def from_oscillator(cls, omega: float = 1.0, hbar: float = 2.0)",
     TEST_CLI + "test_printed_gamma_is_the_given_or_the_oscillator_scale"),
    (CLI, 'fixed = "seller" if "buyer" in curves else "buyer"',
     'fixed = "buyer" if "buyer" in curves else "seller"',
     TEST_CLI + "test_buyer_fixed_price_is_the_buyer_point_mass"),
    (CLI, 'if model == "joint" and grid is not None and any(', "if False and any(",
     TEST_CLI + "test_point_mass_joint_grid_exits_2"),
    (PROPENSITY, '_fit("gamma", 0.5 * self.hbar * self.omega)',
     '_fit("gamma", self.hbar * self.omega)',
     "tests/test_acceptance.py::test_criterion_7_oscillator_closure"),
    (DECISION, "(b11, b21), (b12, b22)", "(b11, b12), (b21, b22)",
     "tests/test_kernels.py::test_second_measurement_weighs_the_column_of_the_first_outcome"),
    # A tolerance of zero or less reaches the model module, which refuses it
    # in its own words.
    (CLI, 'Param("tol", "posfloat"', 'Param("tol", "float"',
     TEST_CLI + "test_tolerance_must_be_positive"),
    # The contract at the edges of the CLI, each rule pinned by one test of
    # its table. Output that cannot be written: a closed stdout raises
    # AttributeError, a failed write drops stdout for the next call in the
    # same process.
    (CLI, '        if out_path is None and sys.stdout is None:\n'
          '            raise OSError("standard output is closed")\n', "",
     TEST_CLI + "test_closed_stdout_exits_2"),
    (CLI, '    except OSError as exc:\n        raise UsageError(f"cannot write output: {exc}")',
     '    except OSError as exc:\n        sys.stdout = None\n'
     '        raise UsageError(f"cannot write output: {exc}")',
     TEST_CLI + "test_a_failed_write_in_process_leaves_stdout_as_it_was"),
    # The split writer: a platform without os.fork, a call of CHUNK_ROWS rows
    # split, and a child that leaves by return, which only a real process
    # shows formatting a second record.
    (CLI, 'if calls and hasattr(os, "fork") and len(cpus) != 1:',
     "if calls and len(cpus) != 1:",
     TEST_CLI + "test_a_call_that_cannot_fork_writes_the_same_bytes"),
    (CLI, "if rows > CHUNK_ROWS else ()", "if rows >= CHUNK_ROWS else ()",
     TEST_CLI + "test_split_output_is_byte_identical"),
    (CLI, "os._exit(0)", "return",
     TEST_CLI + "test_split_output_of_a_subprocess_matches_the_call_in_process"),
    # The goldens: a CSV header with spaces, JSON indented by three, an
    # integer wall_time_ms, and a command left without goldens.
    (CLI, 'pieces = [",".join(table) + "\\n"', 'pieces = [", ".join(table) + "\\n"',
     TEST_CLI + "test_csv_outputs_match_goldens_byte_for_byte"),
    (CLI, 'inner = indent + "  "', 'inner = indent + "   "',
     TEST_CLI + "test_json_outputs_match_goldens_byte_for_byte"),
    (CLI, "(time.perf_counter() - start) * 1000.0, 3)", "(time.perf_counter() - start) * 1000.0)",
     TEST_CLI + "test_json_outputs_match_goldens_up_to_timing"),
    ("tests/make_goldens.py", '    "work": ["work", "--mean-price", "1.0", "--sigma", "0.25",\n'
     '             "--price1", "1.2", "--price2", "1.0", "--gamma", "1.0"],\n', "",
     TEST_CLI + "test_every_command_has_json_and_csv_goldens"),
    # Usage errors: a config that cannot be opened, a required flag, a
    # one-point or reversed grid, both or neither of price and grid, gamma
    # with omega, two fixed prices, a fixed price with its curve, --flag=--,
    # the line of an unknown key, an unknown section, an empty --out, and an
    # --out whose directory is made. The usage line's COMMAND is pinned by
    # the exact stderr alone.
    (CLI, "    except (OSError, UnicodeDecodeError) as exc:",
     "    except UnicodeDecodeError as exc:",
     TEST_CLI + "test_run_missing_config_file"),
    (CLI, "required=spec.required,", "required=False,",
     TEST_CLI + "test_missing_required_flag_exits_2"),
    (CLI, 'metavar="COMMAND"', 'metavar="MODEL"', TEST_CLI + "test_unknown_command_exits_2"),
    (CLI, "    if n < 2:", "    if n < 1:", TEST_CLI + "test_single_point_grid_exits_2"),
    (CLI, "    if lo <= 0 or hi <= lo:", "    if lo <= 0:",
     TEST_CLI + "test_malformed_grid_exits_2"),
    (CLI, 'if model == "force" and (grid is None) == (params.get("price") is None):',
     'if model == "force" and grid is None and params.get("price") is None:',
     TEST_CLI + "test_force_needs_price_or_grid"),
    (CLI, '            and (params.get("omega") is not None or params.get("hbar") is not None)):',
     '            and params.get("hbar") is not None):',
     TEST_CLI + "test_gamma_and_omega_are_exclusive"),
    (CLI, "        if None not in fixed.values():", "        if False:",
     TEST_CLI + "test_both_sides_fixed_exits_2"),
    (CLI, "            if fixed[side] is not None and curves[side] != (None, None):",
     "            if False:", TEST_CLI + "test_fixed_price_excludes_same_side_curve"),
    (CLI, "            if isinstance(value, list):", "            if False:",
     TEST_CLI + "test_flag_given_double_dash_exits_2"),
    (CLI, "enumerate(text.splitlines(), start=1)", "enumerate(text.splitlines(), start=0)",
     TEST_CLI + "test_run_unknown_key_is_fatal"),
    (CLI, "    if extras:\n", "    if False:\n", TEST_CLI + "test_run_unknown_section_is_fatal"),
    (CLI, 'start, getattr(args, "out", None))', 'start, getattr(args, "out", None) or None)',
     TEST_CLI + "test_run_empty_out_exits_2"),
    (CLI, 'else open(out_path, "w"', 'else open(os.makedirs(os.path.dirname(out_path) or ".", '
     'exist_ok=True) or out_path, "w"', TEST_CLI + "test_run_out_to_missing_directory_exits_2"),
    # A computed state or gate is writable; unchecked runs __post_init__, or
    # fills the fields in reverse.
    (QUBITS, "    arr.setflags(write=False)\n    return unchecked(cls, arr)",
     "    return unchecked(cls, arr)",
     "tests/test_qubits.py::test_state_amplitudes_are_read_only"),
    (RECORD, "    return obj\n", '    getattr(cls, "__post_init__", id)(obj)\n    return obj\n',
     UNCHECKED),
    (RECORD, "dict(zip(cls.__match_args__, values))",
     "dict(zip(cls.__match_args__, values[::-1]))", UNCHECKED),
    # A record: a positional call with too many or too few fields is let
    # through; a field can be assigned; a subclass instance compares equal; a
    # field without a default after one with it is let through; __post_init__
    # is skipped.
    (RECORD, "if kwargs or len(args) != n:", "if kwargs:",
     TEST_RECORD + "test_bad_calls_raise_type_error"),
    (RECORD, 'raise FrozenFieldError(f"cannot assign to field {name!r}")',
     "object.__setattr__(self, name, value)", TEST_RECORD + "test_fields_are_frozen"),
    (RECORD, "if other.__class__ is not self.__class__:",
     "if not isinstance(other, self.__class__):", TEST_RECORD + "test_equality_and_hash"),
    (RECORD, "if any(name in cls.__dict__ for name in names[:n - len(defaults)]):", "if False:",
     TEST_RECORD + "test_a_field_without_default_after_one_with_it_is_refused"),
    (RECORD, "        if post_init is not None:\n            post_init(self)\n", "",
     TEST_RECORD + "test_post_init_sees_every_field_and_may_set_one"),
    # The ziggurat: a try's strip from 7 bits, its sign from bit 9, the
    # tail's sign from bit 9 of rabs, and the wedge test turned round.
    (DRAWS, "strip = bits & 0xFF", "strip = bits & 0x7F", ZIGGURAT),
    (DRAWS, "if bits & 0x100:", "if bits & 0x200:", ZIGGURAT),
    (DRAWS, "if rabs >> 8 & 1 else", "if rabs >> 9 & 1 else", ZIGGURAT),
    (DRAWS, "+ _FI[strip] < math.exp(-0.5 * z * z):", "+ _FI[strip] > math.exp(-0.5 * z * z):",
     ZIGGURAT),
    # The qubit engine: each check of an input, each copy of a computed array, the pick.
    (QUBITS, "    if arr.shape not in shapes:", "    if False:",
     TEST_QUBITS + "test_gate_rejects_bad_shape"),
    (QUBITS, "    if not np.all(np.isfinite(arr)):", "    if False:",
     TEST_QUBITS + "test_state_rejects_nonfinite"),
    (QUBITS, "if abs(norm_sq - 1.0) > STATE_NORM_TOL:", "if abs(norm_sq - 1.0) > 1.0:",
     TEST_QUBITS + "test_state_rejects_unnormalized"),
    (QUBITS, '    if n_qubits not in (1, 2):\n        raise ValueError(f"supported',
     '    if False:\n        raise ValueError(f"supported',
     TEST_QUBITS + "test_initial_state_rejects_unsupported_count"),
    (QUBITS, "    if not math.isfinite(angle):", "    if False:",
     TEST_QUBITS + "test_rotation_rejects_nonfinite_angle"),
    (QUBITS, "    elif control == 2:", "    elif control != 1:",
     TEST_QUBITS + "test_cnot_rejects_bad_control"),
    (QUBITS, "if g1.dim != 2 or g2.dim != 2:", "if g1.dim != 2 and g2.dim != 2:",
     TEST_QUBITS + "test_tensor_rejects_two_qubit_input"),
    (QUBITS, "    if gate.dim != state.amplitudes.shape[0]:", "    if False:",
     TEST_QUBITS + "test_apply_rejects_dimension_mismatch"),
    (QUBITS, "    if state.n_qubits != 2:", "    if False:",
     TEST_QUBITS + "test_partial_measurement_rejects_single_qubit_state"),
    (QUBITS, "    if qubit not in (1, 2):", "    if False:",
     TEST_QUBITS + "test_partial_measurement_rejects_bad_wire"),
    (QUBITS, "if m.ndim != 2 or m.shape[0] != m.shape[1]:", "if m.ndim != 2:",
     TEST_QUBITS + "test_is_unitary_rejects_nonsquare"),
    (QUBITS, "    if n < 0:", "    if n < -1:",
     TEST_KERNELS + "test_random_unitaries_of_zero_draw_nothing"),
    (QUBITS, "np.kron(g1.entries, g2.entries).copy()", "np.kron(g1.entries, g2.entries)",
     COMPUTED),
    (QUBITS, "random_unitaries(rng, 1)[0].copy()", "random_unitaries(rng, 1)[0]", COMPUTED),
    (QUBITS, "    probs.setflags(write=False)\n", "",
     TEST_QUBITS + "test_probabilities_of_a_state_form_a_distribution"),
    (QUBITS, "            if u < acc:", "            if u <= acc:", PICK),
    (QUBITS, "        if p > 0.0:", "        if p >= 0.0:", PICK),
    # The decision circuits: each check of an input, the labels, the threshold, the reports.
    (DECISION, "        if not all(-EVENT_SUM_TOL <= p <= 1.0 + EVENT_SUM_TOL for p in probs):",
     "        if False:", TEST_DECISION + "test_event_distribution_rejects_bad_sum"),
    (DECISION, "        if not abs(sum(probs) - 1.0) <= EVENT_SUM_TOL:", "        if False:",
     TEST_DECISION + "test_event_distribution_rejects_bad_sum"),
    (DECISION, "return dict(zip(EVENT_LABELS, self.as_tuple()))",
     "return dict(zip(EVENT_LABELS[::-1], self.as_tuple()))",
     TEST_DECISION + "test_event_distribution_as_dict_order"),
    (DECISION, "if not (math.isfinite(theta) and math.isfinite(phi)):",
     "if not math.isfinite(theta):", TEST_DECISION + "test_circuit_rejects_nonfinite_angles"),
    (DECISION, "    if not math.isfinite(theta - phi):", "    if False:",
     TEST_DECISION + "test_circuit_rejects_nonfinite_angles"),
    (DECISION, "    if gate.dim != 2:", "    if False:",
     TEST_KERNELS + "test_event_tables_reject_two_qubit_gates"),
    (DECISION, "        gate = Gate(gate)",
     "        gate = unchecked(Gate, __import__('numpy').asarray(gate, dtype=complex))",
     TEST_DECISION + "test_equivalence_rejects_nonunitary_input"),
    (DECISION, 'raise ValueError("trials must be at least 1")\n    if not tol',
     "pass\n    if not tol", TEST_KERNELS + "test_equivalence_sweep_validates_its_arguments"),
    (DECISION, 'raise ValueError("trials must be at least 1")\n    import numpy',
     "pass\n    import numpy", TEST_DECISION + "test_sampled_sequential_rejects_bad_trials"),
    (DECISION, "    if not (math.isfinite(x1) and math.isfinite(x2)):", "    if False:",
     TEST_DECISION + "test_reversal_rejects_nonpositive_costs"),
    (DECISION, "    if x1 <= 0 or x2 <= 0:", "    if x1 <= 0:",
     TEST_DECISION + "test_reversal_rejects_nonpositive_costs"),
    (DECISION, "ratio > REVERSAL_COST_RATIO)", "ratio >= REVERSAL_COST_RATIO)",
     TEST_DECISION + "test_reversal_threshold_is_strict_at_three"),
    (DECISION, "dev = max(abs(x - y) for x, y in zip(seq, ent))", "dev = 0.0",
     TEST_DECISION + "test_equivalence_fails_beyond_its_tolerance"),
    (DECISION, "dev, tol, dev <= tol)", "dev, tol, True)",
     TEST_DECISION + "test_equivalence_fails_beyond_its_tolerance"),
    (DECISION, "dev = max(abs(seq[2] - ent[2]), abs(seq[3] - ent[3]))",
     "dev = abs(seq[2] - ent[2])", SWEEP),
    (DECISION, "abs(m[0] - m[3]),\n                         abs(m[5] - m[6]), abs(m[4] - m[7]))",
     "abs(m[0] - m[3]))", SWEEP),
    (DECISION, "return np.where(u < probs[0], 0, 1 if probs[1] > 0.0 else 0)",
     "return np.where(u < probs[0], 0, 1)", PICK),
    # The propensity curves: each check of an input, the array routes, each formula.
    (PROPENSITY, "if not (math.isfinite(self.mu) and math.isfinite(self.sigma)):",
     "if not math.isfinite(self.sigma):", TEST_PROPENSITY + "test_curve_validation"),
    (PROPENSITY, "        if self.sigma <= 0:", "        if self.sigma < 0:",
     TEST_PROPENSITY + "test_curve_validation"),
    (PROPENSITY, "        if not math.isfinite(self.point):", "        if False:",
     TEST_PROPENSITY + "test_curve_validation"),
    (PROPENSITY, "if not (math.isfinite(self.gamma) and self.gamma > 0):",
     "if not math.isfinite(self.gamma):", TEST_PROPENSITY + "test_scale_constructors"),
    (PROPENSITY, "if not (0 < omega < math.inf and 0 < hbar < math.inf):",
     "if not (0 < omega < math.inf):", TEST_PROPENSITY + "test_reversal_energy_rejects_bad_inputs"),
    (PROPENSITY, "            if not (math.isfinite(value) and value > 0):",
     "            if not math.isfinite(value):",
     TEST_PROPENSITY + "test_oscillator_params_validation"),
    (PROPENSITY, 'raise PointMassError("a point mass has no finite density")\n    # Far',
     "pass\n    # Far", TEST_PROPENSITY + "test_point_mass_has_no_density"),
    (PROPENSITY, 'raise PointMassError("a point mass has no finite density")\n    mu,',
     "pass\n    mu,", TEST_PROPENSITY + "test_point_mass_has_no_density"),
    (PROPENSITY, 'raise PointMassError(\n            "a point mass exerts',
     'print(\n            "a point mass exerts', TEST_PROPENSITY + "test_force_point_mass_raises"),
    (PROPENSITY, 'raise PointMassError("only a Gaussian curve defines an oscillator")', "pass",
     TEST_PROPENSITY + "test_oscillator_rejects_point_mass"),
    (PROPENSITY, "if isinstance(buyer, PointMassCurve) or isinstance(seller, PointMassCurve):",
     "if isinstance(seller, PointMassCurve):",
     TEST_PROPENSITY + "test_joint_rejects_point_mass_inputs"),
    (PROPENSITY, 'raise PointMassError("both sides fixed leaves nothing to negotiate")', "pass",
     TEST_PROPENSITY + "test_fixed_price_joint_side_placement"),
    (PROPENSITY, '    if fixed_side not in ("buyer", "seller"):', "    if False:",
     TEST_PROPENSITY + "test_fixed_price_joint_side_placement"),
    (PROPENSITY, 'raise PointMassError("work along a point mass is undefined")', "pass",
     TEST_PROPENSITY + "test_work_point_mass_raises"),
    (PROPENSITY, "    _require_positive_density(curve, (x1, x2))\n", "",
     TEST_PROPENSITY + "test_work_underflow_raises"),
    (PROPENSITY, "    if n < 1:", "    if n < 0:",
     TEST_PROPENSITY + "test_sample_prices_rejects_bad_count"),
    (PROPENSITY, "return np.frombuffer(out).reshape(shape) if shape else out[0]",
     "return np.frombuffer(out).reshape(shape)",
     TEST_PROPENSITY + "test_array_d_route_is_the_one_point_route"),
    (PROPENSITY, "out.fromlist(values(x[i:i + _BLOCK]))",
     "out.fromlist(values(x[i:i + _BLOCK - 1]))",
     TEST_PROPENSITY + "test_nan_opening_the_second_block_is_the_one_point_route"),
    (PROPENSITY, "    if lo <= hi and min(", "    if min(",
     TEST_PROPENSITY + "test_nan_opening_the_second_block_is_the_one_point_route"),
    (PROPENSITY, "_require_positive_density(curve, points)\n        minus_k",
     "minus_k = -force_constant(curve.sigma, scale.gamma)\n"
     "        _require_positive_density(curve, points)\n        minus_k",
     TEST_PROPENSITY + "test_force_of_no_points_needs_no_force_constant"),
    (PROPENSITY, "- log_sigma\n", "- 0.0\n",
     TEST_PROPENSITY + "test_density_matches_reference_implementation"),
    (PROPENSITY, "return self.exact / self.base_energy - 1.0",
     "return self.exact / self.base_energy", TEST_PROPENSITY + "test_reversal_energy_unit_values"),
    (PROPENSITY, "mu = min(max(w * buyer.mu + (1.0 - w) * seller.mu, lo), hi)",
     "mu = w * buyer.mu + (1.0 - w) * seller.mu",
     TEST_PROPENSITY + "test_joint_of_equal_means_keeps_the_mean"),
    (PROPENSITY, "sigma = narrow * (wide / overlap_sigma)", "sigma = narrow * wide / overlap_sigma",
     TEST_PROPENSITY + "test_joint_of_extreme_widths_is_a_gaussian_curve"),
    (PROPENSITY, 'if fixed_side == "buyer"', 'if fixed_side != "buyer"',
     TEST_PROPENSITY + "test_fixed_price_joint_side_placement"),
    (PROPENSITY, "float(density(counterparty, price))",
     "float(density(counterparty, counterparty.mu))",
     TEST_PROPENSITY + "test_fixed_price_joint_far_from_mean"),
    (PROPENSITY, "    if isinstance(joint.joint, GaussianCurve):", "    if False:",
     TEST_PROPENSITY + "test_transaction_force_gaussian_joint"),
    (PROPENSITY, "joint.buyer if isinstance(joint.buyer, GaussianCurve) else joint.seller",
     "joint.seller", TEST_PROPENSITY + "test_transaction_force_with_fixed_price"),
    (PROPENSITY, "return np.full(n, curve.point)", "return np.full(n, curve.point + 0.5)",
     TEST_PROPENSITY + "test_sample_prices_point_mass_constant"),
    (PROPENSITY, "rng.normal(curve.mu, curve.sigma, size=n)",
     "rng.normal(curve.mu, curve.sigma ** 2, size=n)",
     TEST_PROPENSITY + "test_sample_prices_moments"),
]


def stale(root: Path, mutants: list) -> list[str]:
    """Each entry whose old text does not occur exactly once under root."""
    found = []
    for file, old, _, _ in mutants:
        count = (root / file).read_text(encoding="utf-8").count(old)
        if count != 1:
            found.append(f"{file}: {old!r} occurs {count} times")
    return found


def unresolved(root: Path, mutants: list) -> list[str]:
    """Each part of a selection, path or path::name[id], whose file is
    missing or does not define name at its top level, by def or by
    assignment; read with ast, without running pytest."""
    found, defined = [], {}
    for *_, selection in mutants:
        for part in selection.split():
            path, _, name = part.partition("::")
            name = name.partition("[")[0]
            if not (root / path).is_file():
                found.append(f"{part}: no file {path}")
                continue
            if path not in defined:
                body = ast.parse((root / path).read_text(encoding="utf-8")).body
                defined[path] = {
                    node.name for node in body if isinstance(node, ast.FunctionDef)} | {
                    target.id for node in body if isinstance(node, ast.Assign)
                    for target in node.targets if isinstance(target, ast.Name)}
            if name and name not in defined[path]:
                found.append(f"{part}: {path} defines no {name}")
    return found


def survivors(root: Path, mutants: list) -> list[str]:
    """Each mutant that its selection does not kill, in a copy of root; a
    line is printed for every mutant as it is run."""
    found = []
    with tempfile.TemporaryDirectory() as scratch:
        tree = Path(scratch) / "tree"
        shutil.copytree(root, tree, ignore=IGNORE)
        env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1",
               "PYTEST_DISABLE_PLUGIN_AUTOLOAD": "1"}
        for file, old, new, selection in mutants:
            path = tree / file
            text = path.read_text(encoding="utf-8")
            path.write_text(text.replace(old, new), encoding="utf-8")
            start = time.perf_counter()
            try:
                status = subprocess.run(
                    [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                     *selection.split()], cwd=tree, env=env, stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL, timeout=TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                status = "timeout"
            finally:
                path.write_text(text, encoding="utf-8")
            outcome = {0: "survived", 1: "killed"}.get(status, f"did not run ({status})")
            seconds = time.perf_counter() - start
            line = f"{outcome:<20} {seconds:6.1f} s  {file}: {old!r} -> {new!r}"
            print(line, flush=True)
            if status != 1:
                found.append(line)
    return found


def main() -> int:
    start = time.perf_counter()
    found = stale(ROOT, MUTANTS) or unresolved(ROOT, MUTANTS) or survivors(ROOT, MUTANTS)
    for line in found:
        print("ERROR", line)
    print(f"{len(MUTANTS)} mutants, {len(found)} errors, {time.perf_counter() - start:.1f} s")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
