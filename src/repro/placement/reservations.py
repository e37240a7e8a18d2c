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
    factories.insert(2, ReservationMiddleware.factory(view))
    config = GatewayConfig(middleware_factories=factories)

Models without reservations are untouched.  For reserved models, a tenant
is always admitted inside its reservation; overflow and unreserved tenants
are best-effort and rejected with a typed ``overloaded_error`` envelope
(:class:`~repro.common.CapacityError`) once admitting them would eat into
reserved-but-unused capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..common import CapacityError
from .view import TopologyView

__all__ = ["ReservationMiddleware", "ReservationMiddlewareFactory"]


class ReservationMiddleware:
    """Admission control against the view's per-tenant reservations.

    Implements the gateway middleware protocol (``name`` +
    ``process(ctx, call_next)``) without importing the gateway package, so
    the placement plane stays a dependency of the gateway and not the other
    way round.
    """

    name = "reservation"

    def __init__(self, api, view: TopologyView):
        self.api = api
        self.view = view

    @classmethod
    def factory(cls, view: Optional[TopologyView] = None) -> "ReservationMiddlewareFactory":
        """Factory for ``GatewayConfig.middleware_factories``.

        Without an explicit view the stage binds to the gateway router's
        placement view (``api.router.view``) at
        pipeline-assembly time — and the factory is then a plain picklable
        value, so configs carrying it survive a pickle round-trip (sweep
        cells ship their deployment config to worker processes).
        """
        return ReservationMiddlewareFactory(view)

    def process(self, ctx, call_next):
        model = ctx.model_name
        tenant = ctx.request.user
        if not self.view.reservations_for(model):
            yield from call_next(ctx)
            return
        if not self.view.try_admit(model, tenant):
            raise CapacityError(
                f"capacity for {model} is reserved; tenant {tenant!r} has no "
                "reserved slots left and best-effort capacity is exhausted"
            )
        ctx.metadata["reservation_admitted"] = True
        try:
            yield from call_next(ctx)
        finally:
            self.view.release_admission(model, tenant)


@dataclass
class ReservationMiddlewareFactory:
    """Module-level, picklable ``middleware_factories`` entry.

    ``view=None`` (the picklable form) resolves the gateway router's
    placement view at pipeline-assembly time; an explicit view pins the
    stage to that view but ties the factory to live simulation state.
    """

    view: Optional[TopologyView] = None

    def __call__(self, api) -> ReservationMiddleware:
        return ReservationMiddleware(
            api, self.view if self.view is not None else api.router.view)
