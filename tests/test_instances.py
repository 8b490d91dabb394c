"""Instance construction, generators, and the text file format."""

import io
import math

import numpy as np
import pytest

from shortpath import instances
from shortpath.instances import InstanceError, Term


def test_term_sorts_qubits_and_exposes_mask():
    t = Term((3, 1), 0.5)
    assert t.qubits == (1, 3)
    assert t.mask == 0b1010


def test_term_rejects_repeated_qubit_and_zero_weight():
    with pytest.raises(InstanceError):
        Term((2, 2), 1.0)
    with pytest.raises(InstanceError):
        Term((0, 1), 0.0)


def test_build_merges_duplicates_and_drops_cancellations():
    inst = instances.build_instance(
        3, 2, [((0, 1), 1.0), ((1, 0), 2.0), ((1, 2), 1.0), ((1, 2), -1.0)])
    assert len(inst.terms) == 1
    assert inst.terms[0].qubits == (0, 1)
    assert inst.terms[0].weight == 3.0
    assert inst.j_tot == 3.0


def test_build_diagnostics_name_the_offending_term():
    with pytest.raises(InstanceError, match=r"\(0, 5\)"):
        instances.build_instance(4, 2, [((0, 5), 1.0)])
    with pytest.raises(InstanceError, match="degree"):
        instances.build_instance(4, 2, [((0, 1, 2), 1.0)])
    with pytest.raises(InstanceError, match="non-finite"):
        instances.build_instance(4, 2, [((0, 1), float("nan"))])


def test_sk_pm_is_complete_graph_with_unit_weights():
    inst = instances.generate("sk_pm", 10, seed=3)
    assert len(inst.terms) == math.comb(10, 2) == 45
    assert all(abs(t.weight) == 1.0 for t in inst.terms)
    again = instances.generate("sk_pm", 10, seed=3)
    assert [t.weight for t in inst.terms] == [t.weight for t in again.terms]


def test_sk_gaussian_weights_are_seeded_normals():
    a = instances.generate("sk_gaussian", 6, seed=7)
    b = instances.generate("sk_gaussian", 6, seed=7)
    c = instances.generate("sk_gaussian", 6, seed=8)
    assert np.array_equal(a.weights(), b.weights())
    assert not np.array_equal(a.weights(), c.weights())


def test_toy_model_term_counts_at_zero_density():
    # S1 internal pairs plus S1 x S2 pairs, no AFM terms at density 0
    inst = instances.generate("toy", 5, seed=0, n1=2, afm_density=0.0)
    assert len(inst.terms) == 1 + 2 * 3
    assert all(t.weight == -1.0 for t in inst.terms)


def test_toy_model_draws_from_its_seed():
    a, b, c = (instances.generate("toy", 8, seed=s, n1=2, afm_density=0.5)
               for s in (1, 1, 2))
    assert a == b
    assert [t.qubits for t in a.terms] != [t.qubits for t in c.terms]


@pytest.mark.parametrize("n1,afm_density", [(0, 0.5), (8, 0.5), (2, -0.1), (2, 1.5)])
def test_toy_model_rejects_an_out_of_range_parameter(n1, afm_density):
    with pytest.raises(InstanceError):
        instances.generate("toy", 8, seed=0, n1=n1, afm_density=afm_density)


def test_save_load_round_trip_is_bit_exact():
    inst = instances.generate("sk_gaussian", 7, seed=5)
    buf = io.StringIO()
    instances.save_instance(inst, buf)
    back = instances.load_instance(io.StringIO(buf.getvalue()))
    assert back.n_qubits == inst.n_qubits and back.degree == inst.degree
    assert [t.qubits for t in back.terms] == [t.qubits for t in inst.terms]
    assert np.array_equal(back.weights(), inst.weights())


def test_load_accepts_comments_and_reports_line_numbers():
    good = "# header comment\n3 2\n0 1 1.5  # inline\n\n1 2 -2\n"
    inst = instances.load_instance(io.StringIO(good))
    assert len(inst.terms) == 2
    with pytest.raises(InstanceError, match="line 3"):
        instances.load_instance(io.StringIO("3 2\n0 1 1.0\n0 oops 1.0\n"))
    with pytest.raises(InstanceError, match="header"):
        instances.load_instance(io.StringIO("# nothing\n"))


def test_file_round_trip_on_disk(tmp_path):
    inst = instances.generate("sk_pm", 6, seed=2)
    path = str(tmp_path / "inst.txt")
    instances.save_instance(inst, path)
    back = instances.load_instance(path)
    assert np.array_equal(back.weights(), inst.weights())
