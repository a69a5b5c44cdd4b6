"""Setup for the actual-execution (wall-clock) experiment, Section 6.3.

The paper measures real response times for TPC-DS Q91 with four epps on
a 100 GB PostgreSQL instance.  We reproduce the *mechanics* at laptop
scale: a Q91-shaped 4-epp query over a generated star/branch schema
whose catalog cardinalities equal the generated row counts, so the cost
model, contour budgets, and engine cost meter all live on one scale.
Foreign keys are drawn with Zipf skew, which pushes the true join
selectivities away from any uniformity assumption — the error the
discovery algorithms must survive.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.catalog.datagen import DataGenerator
from repro.catalog.schema import Column, ForeignKey, Schema, Table, fk_column, key_column
from repro.ess.contours import ContourSet
from repro.ess.grid import ESSGrid
from repro.ess.ocs import ESS
from repro.obs.metrics import REGISTRY
from repro.perf.cache import fetch_or_build
from repro.query.predicates import filter_pred, join
from repro.query.query import SPJQuery


@dataclass
class WallclockSetup:
    """Everything the wall-clock experiment needs."""

    schema: Schema
    query: SPJQuery
    generator: DataGenerator
    ess: ESS
    contours: ContourSet


def build_wallclock_setup(row_budget=40_000, seed=11, resolution=10):
    """Build the Q91-shaped engine experiment at a given data scale.

    Args:
        row_budget: approximate total generated rows (the fact table gets
            ~60% of it).
        seed: data-generation seed.
        resolution: ESS grid resolution per dimension.
    """
    fact_rows = max(2_000, int(row_budget * 0.6))
    cust_rows = max(400, int(row_budget * 0.25))
    addr_rows = max(200, cust_rows // 2)
    date_rows = max(100, int(row_budget * 0.01))
    demo_rows = max(200, cust_rows // 2)

    schema = Schema("wallclock_q91", tables=[
        Table("returns", fact_rows, [
            fk_column("r_date_id", date_rows, indexed=True),
            fk_column("r_customer_id", cust_rows, indexed=True),
            Column("r_amount", ndv=1_000),
        ]),
        Table("dates", date_rows, [
            key_column("dt_id", date_rows),
            Column("dt_month", ndv=12),
        ]),
        Table("customers", cust_rows, [
            key_column("cu_id", cust_rows),
            fk_column("cu_demo_id", demo_rows, indexed=True),
            fk_column("cu_addr_id", addr_rows, indexed=True),
        ]),
        Table("demographics", demo_rows, [
            key_column("de_id", demo_rows),
            Column("de_status", ndv=5),
        ]),
        Table("addresses", addr_rows, [
            key_column("ad_id", addr_rows),
            Column("ad_state", ndv=20),
        ]),
    ], foreign_keys=[
        ForeignKey("returns", "r_date_id", "dates", "dt_id"),
        ForeignKey("returns", "r_customer_id", "customers", "cu_id"),
        ForeignKey("customers", "cu_demo_id", "demographics", "de_id"),
        ForeignKey("customers", "cu_addr_id", "addresses", "ad_id"),
    ])

    generator = DataGenerator(schema, seed=seed)
    generator.generate_table("dates")
    generator.generate_table("demographics")
    generator.generate_table("addresses")
    generator.generate_table(
        "customers", fk_skew={"cu_demo_id": 1.1, "cu_addr_id": 0.7}
    )
    generator.generate_table(
        "returns", fk_skew={"r_date_id": 2.2, "r_customer_id": 1.4}
    )

    # Filter-correlated skew: the hottest referenced dimension rows get
    # the filtered attribute value.  A uniformity-based estimator then
    # under-estimates the filtered join selectivities by orders of
    # magnitude — the JOB-style correlation that makes these predicates
    # error-prone in the first place.
    import numpy as np

    returns = generator.table("returns")
    dates = generator.table("dates")
    ref_counts = np.bincount(returns.column("r_date_id"),
                             minlength=date_rows)
    hot_dates = np.argsort(-ref_counts)[: max(2, date_rows // 25)]
    months = dates.column("dt_month")
    months[months == 3] = 0          # only hot dates carry the target month
    months[hot_dates] = 3

    customers = generator.table("customers")
    demographics = generator.table("demographics")
    demo_refs = np.bincount(customers.column("cu_demo_id"),
                            minlength=demo_rows)
    hot_demos = np.argsort(-demo_refs)[: max(2, demo_rows // 10)]
    statuses = demographics.column("de_status")
    statuses[statuses == 2] = 0      # likewise for the status filter
    statuses[hot_demos] = 2

    # Placeholder true selectivities; the experiment *measures* the real
    # ones from the generated data (measured_location) — the discovery
    # algorithms never look at these values.
    query = SPJQuery("wallclock_4d", schema,
                     ["returns", "dates", "customers", "demographics",
                      "addresses"],
                     joins=[
                         join("returns", "r_date_id", "dates", "dt_id",
                              selectivity=1.0 / date_rows, error_prone=True,
                              name="j:r-dt"),
                         join("returns", "r_customer_id", "customers",
                              "cu_id", selectivity=1.0 / cust_rows,
                              error_prone=True, name="j:r-cu"),
                         join("customers", "cu_demo_id", "demographics",
                              "de_id", selectivity=1.0 / demo_rows,
                              error_prone=True, name="j:cu-de"),
                         join("customers", "cu_addr_id", "addresses",
                              "ad_id", selectivity=1.0 / addr_rows,
                              error_prone=True, name="j:cu-ad"),
                     ],
                     filters=[
                         filter_pred("dates", "dt_month", "=", 3,
                                     selectivity=1.0 / 12),
                         filter_pred("demographics", "de_status", "=", 2,
                                     selectivity=1.0 / 5),
                     ])

    grid = ESSGrid(
        query.num_epps,
        resolution=resolution,
        sel_min=[min(1e-4, p.selectivity / 5.0) for p in query.epps],
    )
    ess = fetch_or_build(query, grid)
    with REGISTRY.phase("contour_build"):
        contours = ContourSet(ess)
    return WallclockSetup(
        schema=schema, query=query, generator=generator, ess=ess,
        contours=contours,
    )
