"""Unit tests for ``eq_π`` (Definition 4.6(1)), the output-variable
partition every proof tree's root label starts from; the Datalog
rewriting emits one root per partition."""

import pytest

from repro.core.terms import Variable
from repro.expressiveness.translation import eq_partition_substitution

X, Y = Variable("X"), Variable("Y")


class TestEqPartition:
    def test_identity_partition(self):
        eq = eq_partition_substitution([[X], [Y]])
        assert eq.apply_term(X) == X and eq.apply_term(Y) == Y

    def test_merging_partition(self):
        eq = eq_partition_substitution([[X, Y]])
        assert eq.apply_term(Y) == X

    def test_empty_block_rejected(self):
        with pytest.raises(ValueError):
            eq_partition_substitution([[]])
