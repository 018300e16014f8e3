"""The symmetry sweep runs as stacks of fields, and stacking changes no bits.

run_matrix takes one derivative set of each stack U of (u, u_t) pairs and
one of -U, and one residual assembly per (equation, medium) group and side;
every row must still be, bit for bit, the row of its case run alone.
"""
import contextlib
import io
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kdvwaves import cli, equations
from kdvwaves.equations import Field, residual
from kdvwaves.inversion import algebraic_defect, default_matrix, run_matrix
from reference_derivatives import negative_control


@settings(max_examples=25, deadline=None)
@given(data=st.data(),
       seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3, unique=True),
       backend=st.sampled_from(["spectral", "fd8"]))
def test_a_stack_gives_each_case_its_one_case_row_bit_for_bit(data, seeds, backend):
    matrix = default_matrix(seeds=seeds)
    picks = data.draw(st.lists(st.sampled_from(range(len(matrix))), min_size=1,
                               unique=True))
    cases = [matrix[i] for i in picks]
    rows = run_matrix(cases, backend)
    assert json.dumps(rows) == json.dumps([run_matrix([c], backend)[0] for c in cases])
    for case, row in zip(cases, rows):
        assert row["label"] == case.label
        assert row["algebraic_defect_value"] == algebraic_defect(
            case.u, case.ut, case.eq, case.params).relative
        if case.is_solution:
            # the one-row residual path of each side, in its own transforms
            neg = Field(case.u.grid, -case.u.values), Field(case.ut.grid, -case.ut.values)
            upright, _ = residual(case.u, case.ut, case.eq, case.params, backend=backend)
            mirrored, _ = residual(*neg, case.eq, case.params.flipped(), backend=backend)
            control = negative_control(case.u, case.ut, case.eq, case.params, backend)
            assert row["upright_residual"] == upright.relative
            assert row["mirrored_residual"] == mirrored.relative
            assert row["control_residual"] == control.relative


def test_a_default_sweep_takes_one_derivative_set_per_stack_and_sign(monkeypatch):
    # five seeds share one stack of random fields; per command, 32 transforms
    # build the fields and 4 serve each stack (240 when every row took its
    # own); 8 (equation, bottom) groups of random rows take 2 assemblies
    # each, the 8 solutions 3 each (104 when every residual took its own)
    calls = {"fft": 0, "assembly": 0}

    def counted(fn, what):
        def wrapper(*args, **kwargs):
            calls[what] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.fft, "rfft", counted(np.fft.rfft, "fft"))
    monkeypatch.setattr(np.fft, "irfft", counted(np.fft.irfft, "fft"))
    # derivative sets go through the gufunc handles that equations imports
    monkeypatch.setattr(equations, "_rfft", counted(equations._rfft, "fft"))
    monkeypatch.setattr(equations, "_irfft", counted(equations._irfft, "fft"))
    monkeypatch.setattr(equations, "equation_terms",
                        counted(equations.equation_terms, "assembly"))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["symmetry"]) == 0
    assert len(out.getvalue().splitlines()) == 48
    assert calls["fft"] <= 68
    assert calls["assembly"] <= 40
