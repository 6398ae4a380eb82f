"""The package functions that no known traffic calls are the kept few."""

import trace_traffic


def test_never_called_functions_are_the_kept_ones():
    # The corpus and one pool of each benchmark workload, under sys.settrace.
    assert trace_traffic.never_called() == set(trace_traffic.KEPT)
