"""The one-stop construction facade: ``make_method`` and friends.

Callers used to import constructors from five ``repro.distribution.*``
modules (plus :mod:`repro.core.fx`) and remember each one's signature.
This module puts a single registry-backed factory in front of all of
them::

    from repro import make_method

    fx = make_method("fx", fields=(8, 8, 16), devices=32)
    gdm = make_method("gdm", fields=(8, 8), devices=16, multipliers=(3, 5))
    scheme = make_method("replicated", fields=(4, 8), devices=8, base="fx")

Names cover every registered distribution method plus ``"replicated"``
(a :class:`~repro.distribution.replicated.ChainedReplicaScheme` over any
base method).  Unknown options and names raise
:class:`~repro.errors.ConfigurationError` with the known alternatives
spelled out.  The constructor classes themselves are importable only
from the modules that define them.

The higher tiers stack on the same keyword surface — every factory takes
``(name, *, fields=..., devices=..., **method options)`` plus its tier's
knobs, and the knob names are shared wherever tiers overlap:

======================  ==============================================
factory                 adds
======================  ==============================================
:func:`make_method`     the bucket-to-device method itself
:func:`make_durable_file`  store options (``checksummed``, ``replicate``,
                        ``offset``, ``cost_model``) + WAL crash points
:func:`make_service`    the same store options (minus replication) +
                        serving knobs mirroring
                        :class:`~repro.service.ServiceConfig`
                        (admission limits, deadline, cache size)
:func:`make_gateway`    the same serving knobs as tenant-wide defaults +
                        network knobs mirroring
                        :class:`~repro.gateway.GatewayConfig`
======================  ==============================================

The ``serve`` and ``gateway`` CLI subcommands construct exclusively
through this module.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Sequence

from repro.distribution.base import (
    DistributionMethod,
    available_methods,
    create_method,
)
from repro.errors import ConfigurationError
from repro.hashing.fields import FileSystem

__all__ = [
    "make_method",
    "make_durable_file",
    "make_service",
    "make_gateway",
    "method_names",
    "register_factory",
    "default_gdm_multipliers",
]

#: Builders needing more than the plain ``cls(filesystem, **opts)`` shape.
_FACTORIES: dict[str, Callable[..., object]] = {}


def register_factory(name: str):
    """Decorator registering a special-cased builder for *name*."""

    def decorate(builder: Callable[..., object]):
        if name in _FACTORIES:
            raise ConfigurationError(f"factory {name!r} already registered")
        _FACTORIES[name] = builder
        return builder

    return decorate


def default_gdm_multipliers(n_fields: int) -> tuple[int, ...]:
    """The odd-sequence multipliers used as the GDM default everywhere
    (CLI, facade, skew reports): 3, 5, 7, ... one per field."""
    return tuple(range(3, 3 + 2 * n_fields, 2))


@register_factory("gdm")
def _make_gdm(filesystem: FileSystem, **opts):
    from repro.distribution.gdm import GDM_PRESETS, GDMDistribution

    preset = opts.pop("preset", None)
    if preset is not None:
        if "multipliers" in opts:
            raise ConfigurationError(
                "pass either preset= or multipliers=, not both"
            )
        if preset not in GDM_PRESETS:
            raise ConfigurationError(
                f"unknown GDM preset {preset!r}; known: {sorted(GDM_PRESETS)}"
            )
        return GDMDistribution.preset(filesystem, preset)
    opts.setdefault(
        "multipliers", default_gdm_multipliers(filesystem.n_fields)
    )
    return GDMDistribution(filesystem, **opts)


@register_factory("replicated")
def _make_replicated(filesystem: FileSystem, **opts):
    from repro.distribution.replicated import ChainedReplicaScheme

    base = opts.pop("base", "fx")
    offset = opts.pop("offset", 1)
    if isinstance(base, DistributionMethod):
        if base.filesystem != filesystem:
            raise ConfigurationError(
                "base method was built for a different file system"
            )
        base_method = base
    else:
        base_method = make_method(
            base, fields=filesystem.field_sizes, devices=filesystem.m, **opts
        )
        opts = {}
    if opts:
        raise ConfigurationError(
            f"unknown options for 'replicated': {sorted(opts)}"
        )
    return ChainedReplicaScheme(base_method, offset=offset)


def method_names() -> tuple[str, ...]:
    """Every name :func:`make_method` accepts, sorted."""
    return tuple(sorted(set(available_methods()) | set(_FACTORIES)))


def make_method(
    name: str,
    *,
    fields: Sequence[int],
    devices: int,
    **opts: object,
):
    """Build a distribution method (or replica scheme) by name.

    *fields* are the per-field domain sizes (powers of two), *devices* the
    array width ``M``; extra keyword options go to the method constructor
    (e.g. ``policy=`` / ``transforms=`` for fx, ``multipliers=`` or
    ``preset=`` for gdm, ``seed=`` for random, ``traversal=`` for
    spanning, ``base=`` / ``offset=`` for replicated).

    >>> make_method("modulo", fields=(4, 4), devices=4).device_of((3, 3))
    2
    >>> make_method("fx", fields=(2, 8), devices=4).name
    'fx'
    """
    # Importing the concrete modules registers every built-in method.
    import repro.core.fx  # noqa: F401
    import repro.distribution  # noqa: F401

    filesystem = FileSystem.of(*fields, m=devices)
    builder = _FACTORIES.get(name)
    try:
        if builder is not None:
            return builder(filesystem, **opts)
        if name not in available_methods():
            raise ConfigurationError(
                f"unknown method {name!r}; known: {list(method_names())}"
            )
        return create_method(name, filesystem, **opts)
    except TypeError as error:
        # An unknown constructor kwarg surfaces as TypeError; keep the
        # facade's promise that everything it raises is a ReproError.
        raise ConfigurationError(
            f"bad options for method {name!r}: {error}"
        ) from error


def make_durable_file(
    name: str = "fx",
    *,
    fields: Sequence[int],
    devices: int,
    replicate: bool = True,
    offset: int = 1,
    checksummed: bool = True,
    crash_after: int | None = None,
    torn_tail: bool = False,
    cost_model=None,
    **opts: object,
):
    """Build a :class:`~repro.durability.DurableFile`: a write-ahead-logged,
    checksummed, (by default) replicated file ready for crash/corruption
    injection and recovery.

    *crash_after* arms a deterministic crash at that WAL record boundary
    (*torn_tail* leaves half a frame behind, as a power cut would);
    *checksummed* puts :class:`~repro.durability.ChecksummedBucketStore`
    pages on every device; *replicate* chains a backup copy at *offset*
    so the scrubber and device rebuilder have replicas to repair from.

    >>> durable = make_durable_file("fx", fields=(4, 4), devices=4)
    >>> durable.insert_all([(i, i % 4) for i in range(8)])
    >>> durable.wal.entry_count
    8
    """
    from repro.distribution.replicated import ChainedReplicaScheme
    from repro.durability import (
        ChecksummedBucketStore,
        CrashPoint,
        DurableFile,
        WriteAheadLog,
    )
    from repro.storage.parallel_file import PartitionedFile
    from repro.storage.replicated_file import ReplicatedFile

    method = make_method(name, fields=fields, devices=devices, **opts)
    store_factory = ChecksummedBucketStore if checksummed else None
    if replicate:
        file = ReplicatedFile(
            ChainedReplicaScheme(method, offset=offset),
            cost_model=cost_model,
            store_factory=store_factory,
        )
    else:
        file = PartitionedFile(
            method, cost_model=cost_model, store_factory=store_factory
        )
    crash = (
        CrashPoint(crash_after, torn_tail=torn_tail)
        if crash_after is not None
        else None
    )
    return DurableFile(file, wal=WriteAheadLog(crash=crash))


def make_service(
    name: str = "fx",
    *,
    fields: Sequence[int],
    devices: int,
    max_concurrent: int = 8,
    queue_limit: int = 32,
    deadline_ms: float | None = None,
    cache_capacity: int = 64,
    checksummed: bool = False,
    cost_model=None,
    **opts: object,
):
    """Build a ready-to-serve :class:`~repro.service.QueryService`:
    a partitioned file under the named distribution method, fronted by
    admission control, request coalescing and the write-aware result
    cache (every service has all three).

    The serving knobs mirror :class:`~repro.service.ServiceConfig`;
    ``checksummed`` puts :class:`~repro.durability.ChecksummedBucketStore`
    pages on every device, the same store option
    :func:`make_durable_file` takes.
    Remaining keyword options go to the method constructor exactly as in
    :func:`make_method`.  The underlying file is reachable as
    ``service.file`` for loading records.

    >>> service = make_service("fx", fields=(4, 4), devices=4)
    >>> __ = service.insert((1, 2))
    >>> service.execute(service.file.query({0: 1})).status
    'ok'
    """
    from repro.service import QueryService, ServiceConfig
    from repro.storage.parallel_file import PartitionedFile

    method = _served_method(name, fields, devices, **opts)
    store_factory = None
    if checksummed:
        from repro.durability import ChecksummedBucketStore

        store_factory = ChecksummedBucketStore
    config = ServiceConfig(
        max_concurrent=max_concurrent,
        queue_limit=queue_limit,
        deadline_ms=deadline_ms,
        cache_capacity=cache_capacity,
    )
    return QueryService(
        PartitionedFile(
            method, cost_model=cost_model, store_factory=store_factory
        ),
        config,
    )


def _served_method(
    name: str, fields: Sequence[int], devices: int, **opts: object
) -> DistributionMethod:
    """:func:`make_method` for a served file, which places each record on
    one device: a name that builds no :class:`DistributionMethod` (such as
    ``"replicated"``) is a :class:`~repro.errors.ConfigurationError`."""
    method = make_method(name, fields=fields, devices=devices, **opts)
    if not isinstance(method, DistributionMethod):
        raise ConfigurationError(
            f"method {name!r} builds a {type(method).__name__}, not a "
            f"distribution method a service can serve; use one of "
            f"{list(available_methods())}"
        )
    return method


#: The ``make_service`` keyword names ``make_gateway`` forwards as
#: tenant-wide defaults — the one shared serving-knob surface.
SERVICE_OPTION_NAMES = (
    "max_concurrent",
    "queue_limit",
    "deadline_ms",
    "cache_capacity",
    "checksummed",
    "cost_model",
)


def make_gateway(
    tenants,
    *,
    fields: Sequence[int] | None = None,
    devices: int | None = None,
    method: str = "fx",
    host: str = "127.0.0.1",
    port: int = 0,
    max_connections: int = 32,
    max_frame_bytes: int | None = None,
    drain_timeout_s: float = 10.0,
    start: bool = False,
    **service_options: object,
):
    """Build a multi-tenant network :class:`~repro.gateway.Gateway`.

    *tenants* may be

    * a sequence of :class:`~repro.gateway.TenantSpec`,
    * a mapping ``{name: {option: value, ...}}`` of per-tenant options
      (``fields``/``devices``/``method`` default from the top-level
      arguments; quotas/limits per :class:`~repro.gateway.TenantSpec`), or
    * a sequence of bare tenant names sharing the top-level
      ``fields``/``devices``/``method``.

    Remaining keyword options are the :func:`make_service` serving knobs
    (see :data:`SERVICE_OPTION_NAMES`) applied as defaults to every
    tenant; a spec's own ``service`` mapping overrides them.  ``start=True``
    binds and launches the accept loop before returning — ``port=0``
    picks a free loopback port, readable from ``gateway.address``.

    >>> gateway = make_gateway(["alpha"], fields=(4, 4), devices=4)
    >>> sorted(gateway.tenants)
    ['alpha']
    """
    from repro.gateway import Gateway, GatewayConfig, TenantSpec
    from repro.gateway.protocol import DEFAULT_MAX_FRAME_BYTES

    unknown = sorted(set(service_options) - set(SERVICE_OPTION_NAMES))
    if unknown:
        raise ConfigurationError(
            f"unknown gateway/service options: {unknown}; "
            f"serving knobs are {sorted(SERVICE_OPTION_NAMES)}"
        )

    def default_spec(tenant_name: str, options: dict) -> TenantSpec:
        options = dict(options)
        tenant_fields = options.pop("fields", fields)
        tenant_devices = options.pop("devices", devices)
        tenant_method = options.pop("method", method)
        if tenant_fields is None or tenant_devices is None:
            raise ConfigurationError(
                f"tenant {tenant_name!r} needs fields= and devices= "
                "(per tenant or as make_gateway defaults)"
            )
        return TenantSpec.of(
            tenant_name,
            fields=tuple(tenant_fields),
            devices=tenant_devices,
            method=tenant_method,
            **options,
        )

    specs: list[TenantSpec] = []
    if hasattr(tenants, "items"):
        for tenant_name, options in tenants.items():
            if isinstance(options, TenantSpec):
                specs.append(options)
            else:
                specs.append(default_spec(tenant_name, dict(options or {})))
    else:
        for entry in tenants:
            if isinstance(entry, TenantSpec):
                specs.append(entry)
            elif isinstance(entry, str):
                specs.append(default_spec(entry, {}))
            else:
                raise ConfigurationError(
                    f"tenant entries must be names or TenantSpec, got "
                    f"{entry!r}"
                )

    # Tenant services are built lazily on first touch, so check every
    # tenant's method and merged serving knobs now — a bad one should fail
    # the build, not bounce every later request as a wire error.
    from repro.service import ServiceConfig

    config_fields = {f.name for f in dataclasses.fields(ServiceConfig)}
    for spec in specs:
        merged = dict(service_options)
        merged.update(spec.service)
        knobs = {
            key: value
            for key, value in merged.items()
            if key in config_fields
        }
        method_opts = {
            key: value
            for key, value in merged.items()
            if key not in SERVICE_OPTION_NAMES
        }
        try:
            ServiceConfig(**knobs).validate()
            _served_method(
                spec.method, spec.fields, spec.devices, **method_opts
            )
        except ConfigurationError as error:
            raise ConfigurationError(
                f"tenant {spec.name!r}: {error}"
            ) from None

    config = GatewayConfig(
        host=host,
        port=port,
        max_connections=max_connections,
        max_frame_bytes=(
            DEFAULT_MAX_FRAME_BYTES
            if max_frame_bytes is None
            else max_frame_bytes
        ),
        drain_timeout_s=drain_timeout_s,
    )
    gateway = Gateway(specs, config, service_defaults=service_options)
    if start:
        gateway.start()
    return gateway
