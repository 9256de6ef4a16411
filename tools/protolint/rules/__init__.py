"""Rule modules; importing this package registers every rule.

Each module defines one rule class decorated with
:func:`tools.protolint.registry.register`.  To add a rule, drop a new
module here and import it below -- nothing else to wire.
"""

from tools.protolint.rules import (  # noqa: F401
    pl001_determinism,
    pl002_digest_compare,
    pl003_dataclass_shape,
    pl004_verify_dispatch,
    pl005_mutable_defaults,
    pl006_config_fields,
    pl007_self_rearming_timer,
    pl101_await_atomicity,
    pl102_blocking_in_async,
    pl103_untracked_task,
    pl104_lock_discipline,
    pl201_wire_lock,
    pl202_unregistered_wire_type,
    pl301_trust_boundary,
)
