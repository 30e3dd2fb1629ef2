import pytest

import fatpoints.oracle as oracle_mod
from fatpoints import FieldConfig, Prover


@pytest.fixture(scope="session")
def cfg():
    return FieldConfig()


@pytest.fixture(scope="session")
def prover():
    # shared so memoized subgoals carry across tests
    return Prover(FieldConfig())


@pytest.fixture
def trial_calls(monkeypatch):
    """Every oracle trial run while the test runs, as (system, prime, seed, trial)."""
    calls = []
    real = oracle_mod._trial_rank

    def counting(sys, cfg, trial):
        calls.append((str(sys), cfg.prime, cfg.seed, trial))
        return real(sys, cfg, trial)

    monkeypatch.setattr(oracle_mod, "_trial_rank", counting)
    return calls
