"""Every desk-scale cap names the measured value, the cap and its override."""

import pytest

from quizlab.errors import CapExceededError, ExpansionCapExceededError
from quizlab.families import (
    build_circuit,
    easy_power_sum,
    elimination_poly,
    expand_family,
    neural_power,
)
from quizlab.kronecker import build_theta_matrix, verify_lemma_identities
from quizlab.witness import (
    VARIANT_BASE,
    check_desk_cap,
    hypercube_lk_coefficients,
    roots_of_unity_matrix,
)

NO_OVERRIDE = "; no override"


@pytest.mark.parametrize(
    "call, expected",
    [
        (
            lambda: expand_family(easy_power_sum(2, 2), (1, 2, 3), cap=5),
            ("needs 10 terms", "cap is 5", NO_OVERRIDE),
        ),
        (
            lambda: elimination_poly(3, 1, (1, 2, 3), cap=2),
            ("n=3", "exceeds 2", NO_OVERRIDE),
        ),
        (
            lambda: elimination_poly(11, 1, (1,) * 11),
            ("n=11", "exceeds 10", "; override with QUIZLAB_ELIMINATION_CAP"),
        ),
        (lambda: build_theta_matrix(9, 1, (1,) * 9), ("k=9", "exceeds 8", NO_OVERRIDE)),
        (lambda: verify_lemma_identities(6, 1, (1,) * 6), ("k=6", "exceeds 5", NO_OVERRIDE)),
        (lambda: hypercube_lk_coefficients(6), ("n=6", "exceeds 5", NO_OVERRIDE)),
        (lambda: roots_of_unity_matrix(65, VARIANT_BASE), ("d = 65", "d <= 64", NO_OVERRIDE)),
        (lambda: check_desk_cap(easy_power_sum(3, 3)), ("n*l = 9", "n*l <= 8", NO_OVERRIDE)),
        (lambda: check_desk_cap(neural_power(7)), ("n = 7", "n <= 6", NO_OVERRIDE)),
    ],
)
def test_cap_message_names_value_cap_and_override(call, expected, monkeypatch):
    monkeypatch.delenv("QUIZLAB_ELIMINATION_CAP", raising=False)
    with pytest.raises(CapExceededError) as info:
        call()
    for part in expected:
        assert part in str(info.value)


def test_expansion_cap_message_names_override_and_node():
    circ = build_circuit(easy_power_sum(3, 2))
    with pytest.raises(ExpansionCapExceededError) as info:
        circ.expand([1, 2, 3], cap=5)
    message = str(info.value)
    assert "cap is 5; QUIZLAB_EXPANSION_CAP overrides it for circuit expand" in message
    assert message.endswith(f" (at node {info.value.node})")
    produced = int(message.split("expansion produced ")[1].split()[0])
    assert produced > 5
