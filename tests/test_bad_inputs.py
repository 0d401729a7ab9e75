"""Bad values at the public boundary, one table row each.

A row is (function, argument, bad value, expected error, message pattern).
The call passes the function's valid arguments from VALID with the named
argument replaced by the bad value; it must raise the error with a message
that names the bad row, index or value.
"""

import numpy as np
import pytest

from pragref.colorspace import Condition
from pragref.corpus import synth_corpus
from pragref.listener import accuracy_perplexity
from pragref.metrics import behavior_metrics, evaluate_probs
from pragref.rsa import blend, s1_table_from_probs
from pragref.training import TrainConfig


def _uniform(n: int) -> np.ndarray:
    return np.full((n, 3), 1 / 3)


def _with_row(n: int, row: int, value: float) -> np.ndarray:
    probs = _uniform(n)
    probs[row, 1] = value
    return probs


VALID = {
    accuracy_perplexity: {"probs": _uniform(3), "targets": np.array([0, 1, 2])},
    evaluate_probs: {"probs": _uniform(6), "trials": synth_corpus(6, np.random.default_rng(0))},
    behavior_metrics: {"items": [("dark blue", Condition.FAR), ("red", Condition.CLOSE)]},
    blend: {"p": np.array([0.2, 0.3, 0.5]), "q": _uniform(2), "w": 0.492},
    s1_table_from_probs: {"l0_probs": np.array([[0.2, 0.3, 0.5], [0.6, 0.3, 0.1]]),
                          "counts": np.array([[1.0, 2.0], [0.0, 1.0]]), "alpha": 0.544},
    TrainConfig: {"seed": 0},
}

CASES = [
    # a NaN row read as a guess of index 0, and an inf row as a score
    (accuracy_perplexity, "probs", _with_row(3, 1, np.nan), ValueError, r"row 1 is not finite"),
    (accuracy_perplexity, "probs", _with_row(3, 2, np.inf), ValueError, r"row 2 is not finite"),
    (accuracy_perplexity, "probs", _with_row(3, 0, -np.inf), ValueError, r"row 0 is not finite"),
    # 5 raised a bare IndexError, -1 scored the last column, floats an IndexError
    (accuracy_perplexity, "targets", np.array([0, 5, 2]), ValueError,
     r"target index 5 of row 1 is not in 0\.\.2"),
    (accuracy_perplexity, "targets", np.array([0, 1, -1]), ValueError,
     r"target index -1 of row 2 is not in 0\.\.2"),
    (accuracy_perplexity, "targets", np.array([0.0, 1.0, 2.0]), ValueError,
     r"target indices must be integers"),
    (accuracy_perplexity, "targets", np.array([True, False, True]), ValueError,
     r"target indices must be integers"),
    # an all-NaN table reported accuracy 1/6
    (evaluate_probs, "probs", np.full((6, 3), np.nan), ValueError, r"row 0 is not finite"),
    # a label string or None raised AttributeError on `.value`
    (behavior_metrics, "items", [("dark blue", "far")], ValueError,
     r"condition 'far' is not a Condition"),
    (behavior_metrics, "items", [("dark blue", Condition.FAR), ("red", None)], ValueError,
     r"condition None is not a Condition"),
    # a weight that is not finite made rows of NaN
    (blend, "w", float("nan"), ValueError, r"blend weight w must be finite, got nan"),
    (blend, "w", float("inf"), ValueError, r"blend weight w must be finite, got inf"),
    (blend, "w", float("-inf"), ValueError, r"blend weight w must be finite, got -inf"),
    # a negative count gave negative "probabilities", a NaN count NaN columns
    (s1_table_from_probs, "counts", np.array([[1.0, -3.0], [0.0, 1.0]]), ValueError,
     r"count -3\.0 is negative or NaN"),
    (s1_table_from_probs, "counts", np.array([1.0, np.nan]), ValueError,
     r"count nan is negative or NaN"),
    # a negative probability was read as a distribution, a NaN one gave a row of NaN
    (blend, "p", np.array([-0.5, 1.0, 0.5]), ValueError,
     r"p row 0 is not in \[0, 1\]: -0\.5"),
    (blend, "p", np.array([1.5, 0.0, 0.0]), ValueError, r"p row 0 is not in \[0, 1\]: 1\.5"),
    (blend, "q", _with_row(2, 1, np.nan), ValueError, r"q row 1 is not in \[0, 1\]: nan"),
    # a NaN L0 probability gave a NaN column, a negative one was floored to 0
    (s1_table_from_probs, "l0_probs", np.array([[0.2, 0.3, 0.5], [np.nan, 0.5, 0.5]]),
     ValueError, r"l0_probs row 1 has a negative or NaN entry: nan"),
    (s1_table_from_probs, "l0_probs", np.array([[-0.2, 0.7, 0.5], [0.6, 0.3, 0.1]]),
     ValueError, r"l0_probs row 0 has a negative or NaN entry: -0\.2"),
    # alpha=nan gave tables of NaN
    (s1_table_from_probs, "alpha", float("nan"), ValueError,
     r"alpha must be a finite real number, got nan"),
    (s1_table_from_probs, "alpha", float("inf"), ValueError,
     r"alpha must be a finite real number, got inf"),
    (s1_table_from_probs, "alpha", True, ValueError,
     r"alpha must be a finite real number, got True"),
    # a multiset of no alternatives divided 0 by 0
    (s1_table_from_probs, "counts", np.array([[1.0, 2.0], [0.0, 0.0]]), ValueError,
     r"multiset row 1 has no alternatives"),
    # a float or negative seed failed only once fit started, a bool trained as seed 1
    (TrainConfig, "seed", 1.5, ValueError, r"seed must be an integer of at least 0, got 1\.5"),
    (TrainConfig, "seed", -1, ValueError, r"seed must be an integer of at least 0, got -1"),
    (TrainConfig, "seed", True, ValueError, r"seed must be an integer of at least 0, got True"),
]


@pytest.mark.parametrize("function", list(VALID), ids=lambda f: f.__name__)
def test_valid_arguments_pass(function):
    function(**VALID[function])


@pytest.mark.parametrize(
    "function,argument,bad,error,message", CASES,
    ids=[f"{f.__name__}-{a}-{i}" for i, (f, a, *_) in enumerate(CASES)])
def test_bad_value_raises(function, argument, bad, error, message):
    with pytest.raises(error, match=message):
        function(**{**VALID[function], argument: bad})
