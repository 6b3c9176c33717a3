"""Flat modal fixpoint logics with converse: formula machinery, Kripke
semantics, atom networks, and a budgeted model construction."""

__version__ = '0.1.0'

# Corruptions `flatmu selftest --mutate` can switch on, each with the check
# row that must then fail. Kept here, in a module that imports nothing, so
# the CLI can list them without importing the self-test module.
MUTATIONS = {'corrupt-axiom': '2'}
