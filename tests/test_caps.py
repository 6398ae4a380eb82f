"""Every desk-scale cap names the measured value, the cap and its override."""

import pytest

from quizlab.errors import CapExceededError, ExpansionCapExceededError, UnsupportedTaskError
from quizlab.families import (
    TASK_CHARPOLY,
    TASK_ELIMINATION,
    build_circuit,
    easy_power_sum,
    elimination_poly,
    hypercube_shift,
    kronecker_diag,
    neural_power,
    univariate_d,
)
from quizlab.kronecker import build_theta_matrix, verify_lemma_identities
from quizlab.witness import (
    VARIANT_BASE,
    hypercube_size,
    roots_of_unity_matrix,
)

NO_OVERRIDE = "; no override"


@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda: elimination_poly(11, 1, (1,) * 11), ("n=11", "exceeds 10", NO_OVERRIDE)),
        (lambda: build_theta_matrix(9, 1, (1,) * 9), ("k=9", "exceeds 8", NO_OVERRIDE)),
        (lambda: verify_lemma_identities(6, 1, (1,) * 6), ("k=6", "exceeds 5", NO_OVERRIDE)),
        (lambda: hypercube_size(6), ("n=6", "exceeds 5", NO_OVERRIDE)),
        (lambda: roots_of_unity_matrix(65, VARIANT_BASE), ("d = 65", "d <= 64", NO_OVERRIDE)),
        (lambda: easy_power_sum(3, 3), ("n*l = 9", "n*l <= 8", NO_OVERRIDE)),
        (lambda: neural_power(7), ("n = 7", "n <= 6", NO_OVERRIDE)),
    ],
)
def test_cap_message_names_value_cap_and_override(call, expected):
    with pytest.raises(CapExceededError) as info:
        call()
    for part in expected:
        assert part in str(info.value)


@pytest.mark.parametrize(
    "make, at_cap, over_cap, unsupported, message",
    [
        (easy_power_sum, (2, 4), (3, 3), TASK_CHARPOLY, "n*l <= 8 exceeded: n*l = 9"),
        (univariate_d, (64,), (65,), TASK_ELIMINATION, "d <= 64 exceeded: d = 65"),
        (neural_power, (6,), (7,), TASK_CHARPOLY, "n <= 6 exceeded: n = 7"),
        (hypercube_shift, (5,), (6,), TASK_CHARPOLY, "n <= 5 exceeded: n = 6"),
        (kronecker_diag, (5,), (6,), TASK_ELIMINATION, "k <= 5 exceeded: k = 6"),
    ],
)
def test_descriptor_holds_each_family_to_its_desk_cap(
    make, at_cap, over_cap, unsupported, message
):
    # Every entry point takes a descriptor, so none can start over the cap.
    assert make(*at_cap).base_support()
    with pytest.raises(CapExceededError) as info:
        make(*over_cap)
    assert str(info.value) == f"desk cap {message}; no override"
    # A usage error is still raised before the cap.
    with pytest.raises(UnsupportedTaskError):
        make(*over_cap, unsupported)


def test_expansion_cap_message_names_override_and_node():
    circ = build_circuit(easy_power_sum(3, 2))
    with pytest.raises(ExpansionCapExceededError) as info:
        circ.expand([1, 2, 3], cap=5)
    message = str(info.value)
    assert "cap is 5; --expansion-cap overrides it for circuit expand" in message
    assert message.endswith(f" (at node {info.value.node})")
    produced = int(message.split("expansion produced ")[1].split()[0])
    assert produced > 5
