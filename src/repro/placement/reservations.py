"""Per-tenant capacity reservations as a gateway pipeline stage.

Reservations guarantee a tenant a number of concurrent in-flight requests
for a model, fleet-wide.  The bookkeeping (reserved slots, admitted
counters, the admission arithmetic) lives on the
:class:`~repro.placement.TopologyView`; this middleware is the enforcement
point on the gateway's request path.

It composes like every other API v2 stage — insert it via
``GatewayConfig.middleware_factories`` right after the auth stage (it needs
the authenticated tenant)::

    factories = default_middleware_factories()
    factories.insert(2, ReservationMiddleware)
    config = GatewayConfig(middleware_factories=factories)

The stage binds to the gateway router's placement view (``api.router.view``)
when the pipeline is assembled, so a config carrying the class still
pickles (sweep cells ship their deployment config to worker processes).

Models without reservations are untouched.  For reserved models, a tenant
is always admitted inside its reservation; overflow and unreserved tenants
are best-effort and rejected with a typed ``overloaded_error`` envelope
(:class:`~repro.common.CapacityError`) once admitting them would eat into
reserved-but-unused capacity.
"""

from __future__ import annotations

from ..common import CapacityError

__all__ = ["ReservationMiddleware"]


class ReservationMiddleware:
    """Admission control against the view's per-tenant reservations.

    Implements the gateway middleware protocol (``name`` + ``before(ctx)`` +
    ``after(ctx, error)``) without importing the gateway package, so the
    placement plane stays a dependency of the gateway and not the other way
    round.
    """

    name = "reservation"

    def __init__(self, api):
        self.api = api
        self.view = api.router.view

    def before(self, ctx):
        model = ctx.model_name
        tenant = ctx.request.user
        if not self.view.reservations_for(model):
            return
        if not self.view.try_admit(model, tenant):
            raise CapacityError(
                f"capacity for {model} is reserved; tenant {tenant!r} has no "
                "reserved slots left and best-effort capacity is exhausted"
            )
        ctx.metadata["reservation_admitted"] = True

    def after(self, ctx, error):
        if ctx.metadata.get("reservation_admitted"):
            self.view.release_admission(ctx.model_name, ctx.request.user)
