"""The package's public names, and the run blocks its layers take."""
import re

import numpy as np
import pytest

import prefnorm
from prefnorm.normalization import NormalizationState
from prefnorm.ranking import fronts_from_matrix, nondominated_sort


def test_every_exported_name_resolves_once():
    names = prefnorm.__all__
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(prefnorm, name)]
    assert missing == []


@pytest.mark.parametrize("call, error, fragment", [
    (lambda: fronts_from_matrix(np.zeros((3, 3), dtype=bool)), ValueError,
     "(R, N, N)"),
    (lambda: nondominated_sort(np.zeros((3, 2))), ValueError, "(R, N, m)"),
    (lambda: NormalizationState("ba", 2), TypeError, "one kind per run"),
], ids=["fronts_from_matrix", "nondominated_sort", "NormalizationState"])
def test_one_run_forms_are_rejected(call, error, fragment):
    # every ranking and normalization call takes a leading run axis, and a
    # normalization state one kind per run
    with pytest.raises(error, match=re.escape(fragment)):
        call()


@pytest.mark.parametrize("kinds, fragment", [
    (["ba", "zz"], "unknown normalization kind 'zz'"),
    (["pp", "ba", "pp"], "the runs of kind 'pp' must be contiguous"),
], ids=["unknown", "split"])
def test_normalization_state_rejects_bad_kinds(kinds, fragment):
    with pytest.raises(ValueError, match=re.escape(fragment)):
        NormalizationState(kinds, 2)
