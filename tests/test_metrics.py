import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpcl.errors import InputError
from dpcl.metrics import AccuracyMatrix, average_accuracy, forgetting, lca

accs = st.floats(0.0, 1.0)


def matrix_from(rows):
    t = len(rows)
    m = AccuracyMatrix(t)
    for k, row in enumerate(rows, start=1):
        for j, v in enumerate(row, start=1):
            m.set(k, j, v)
    return m


def test_average_accuracy_single_task():
    assert average_accuracy(matrix_from([[0.9]]), 1) == 0.9


def test_average_accuracy_row_mean():
    m = matrix_from([[0.6], [0.7, 0.8]])
    assert average_accuracy(m, 2) == pytest.approx(0.75)


def test_average_accuracy_missing_row():
    with pytest.raises(InputError):
        average_accuracy(AccuracyMatrix(2), 2)


def test_forgetting_hand_value():
    m = matrix_from([[0.9], [0.7, 0.8]])
    f, worst = forgetting(m, 2)
    assert f == pytest.approx(0.2)
    assert worst == pytest.approx(0.2)


def test_forgetting_uses_max_over_history():
    m = matrix_from([[0.5], [0.9, 0.6], [0.7, 0.65, 0.8]])
    f, worst = forgetting(m, 3)
    # task 1 best is row 2 (0.9), final 0.7 -> 0.2; task 2: 0.6 - 0.65 -> -0.05
    assert f == pytest.approx((0.2 - 0.05) / 2)
    assert worst == pytest.approx(0.2)


def test_forgetting_can_be_negative():
    m = matrix_from([[0.5], [0.6, 0.7]])
    f, _ = forgetting(m, 2)
    assert f <= 0


def test_forgetting_needs_two_tasks():
    with pytest.raises(InputError):
        forgetting(matrix_from([[0.9]]), 1)


@given(rows=st.integers(2, 6), data=st.data())
@settings(max_examples=50, deadline=None)
def test_worst_case_at_least_mean(rows, data):
    m = matrix_from([
        [data.draw(accs) for _ in range(k)] for k in range(1, rows + 1)
    ])
    f, worst = forgetting(m, rows)
    assert worst >= f - 1e-12


def test_average_accuracy_relabel_invariant():
    m = matrix_from([[0.6], [0.7, 0.8], [0.5, 0.4, 0.9]])
    swapped = matrix_from([[0.6], [0.8, 0.7], [0.4, 0.5, 0.9]])  # swap tasks 1,2 in later rows
    assert average_accuracy(m, 3) == pytest.approx(average_accuracy(swapped, 3))


def test_lca_constant_curve():
    assert lca(np.full(11, 0.37), 10) == pytest.approx(0.37)


def test_lca_linear_curve():
    assert lca(np.array([0.0, 0.5, 1.0]), 2) == pytest.approx(0.5)


def test_lca_short_curve():
    with pytest.raises(InputError):
        lca(np.array([0.5, 0.6]), 5)


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_lca_monotone_under_domination(data):
    beta = data.draw(st.integers(1, 8))
    low = np.array([data.draw(accs) for _ in range(beta + 1)])
    bump = np.array([data.draw(st.floats(0.0, 1.0)) for _ in range(beta + 1)])
    high = np.minimum(low + bump, 1.0)
    assert lca(high, beta) >= lca(low, beta) - 1e-12


def test_matrix_csv(tmp_path):
    m = matrix_from([[0.6], [0.7, 0.8]])
    path = tmp_path / "m.csv"
    m.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "after_task,task_1,task_2"
    assert lines[1].startswith("1,0.6")
    assert lines[2] == "2,0.7,0.8"
