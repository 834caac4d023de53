"""Tests for the exception hierarchy: every error is catchable as
ReproError, and subsystem groupings hold."""

import pickle

import pytest

from repro import errors


class TestHierarchy:
    @pytest.mark.parametrize("exc_cls", [
        errors.SimulationError,
        errors.MemoryError_,
        errors.OutOfMemoryError,
        errors.StorageError,
        errors.SnapshotNotFoundError,
        errors.NetworkError,
        errors.AddressConflictError,
        errors.RuntimeModelError,
        errors.SandboxError,
        errors.PlatformError,
        errors.FunctionNotFoundError,
        errors.AnnotationError,
        errors.BusError,
        errors.DatabaseError,
        errors.DocumentConflictError,
    ])
    def test_everything_is_a_repro_error(self, exc_cls):
        assert issubclass(exc_cls, errors.ReproError)
        with pytest.raises(errors.ReproError):
            raise exc_cls("boom")

    def test_subsystem_groupings(self):
        assert issubclass(errors.OutOfMemoryError, errors.MemoryError_)
        assert issubclass(errors.SnapshotNotFoundError, errors.StorageError)
        assert issubclass(errors.AddressConflictError, errors.NetworkError)
        assert issubclass(errors.FunctionNotFoundError,
                          errors.PlatformError)
        assert issubclass(errors.DocumentConflictError,
                          errors.DatabaseError)

    def test_injected_faults_are_repro_errors(self):
        assert issubclass(errors.InjectedFault, errors.ChaosError)
        assert issubclass(errors.SnapshotCorruptedError,
                          errors.InjectedFault)
        # The invoke loop must not retry them: the component that failed
        # owns the recovery.
        assert not issubclass(errors.InjectedFault,
                              errors.RetryableChaosError)

    def test_fault_carries_kind_and_key(self):
        fault = errors.InjectedFault("db-timeout", "wages")
        assert fault.kind == "db-timeout"
        assert fault.key == "wages"
        assert "wages" in str(fault)

    def test_repro_errors_are_not_builtin_shadows(self):
        """MemoryError_ deliberately does not subclass builtin MemoryError
        (which is not an Exception subclass pattern we want to catch)."""
        assert not issubclass(errors.MemoryError_, MemoryError)


class TestUndrainedSimulationError:
    def test_survives_pickling_with_every_field(self):
        # A pool worker's shard error crosses the process boundary.
        error = errors.UndrainedSimulationError(
            "process 'ticker'", 86_400_000.0, "never-quiet", "all")
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is errors.UndrainedSimulationError
        assert (copy.pending, copy.horizon_ms, copy.experiment,
                copy.shard) == ("process 'ticker'", 86_400_000.0,
                                "never-quiet", "all")
        assert str(copy) == str(error)


#: Constructor arguments of each error whose ``__init__`` takes more than
#: a message.
_ARGS = {
    errors.UndrainedSimulationError: ("process 'ticker'", 86_400_000.0,
                                      "never-quiet", "all"),
    errors.HostDownError: (3, "queue"),
    errors.InvocationSheddedError: (1, "queue-full", 16),
    errors.ExecutionLostError: (2,),
    errors.InjectedFault: ("db-timeout", "reminders"),
    errors.SnapshotCorruptedError: ("restore-corruption", "fn"),
    errors.InvocationFailedError: ("fn", 3, "host2 is down",
                                   "fireworks-inv7"),
}


def _every_error():
    return [value for value in vars(errors).values()
            if isinstance(value, type) and issubclass(value, BaseException)
            and value.__module__ == errors.__name__]


@pytest.mark.parametrize("error_cls", _every_error(),
                         ids=lambda cls: cls.__name__)
def test_every_error_survives_pickling(error_cls):
    # A shard's error crosses a process pool under --jobs > 1 as itself.
    error = error_cls(*_ARGS.get(error_cls, ("a message",)))
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is error_cls
    assert str(copy) == str(error)
    assert vars(copy) == vars(error)
