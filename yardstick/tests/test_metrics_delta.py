import served

BEFORE = """\
# HELP repro_serve_surface_hits_total repro observability metric
# TYPE repro_serve_surface_hits_total counter
repro_serve_surface_hits_total 100
repro_phase_runs_total{phase="ess_build"} 5
repro_serve_latency_seconds_bucket{phase="total",le="+Inf"} 973
repro_serve_inflight 0
"""

AFTER = """\
# TYPE repro_serve_surface_hits_total counter
repro_serve_surface_hits_total 160
repro_serve_surface_builds_total 12
repro_serve_surface_evictions_total 9
repro_phase_runs_total{phase="ess_build"} 8
repro_phase_runs_total{phase="contour_build"} 16
repro_serve_rejected_total{reason="queue_full"} 2
repro_serve_latency_seconds_sum{phase="total"} 1.5e-3
not a sample line at all
"""


def test_parse_keeps_labels_and_skips_comments():
    parsed = served.parse_metrics(AFTER)
    assert parsed["repro_serve_surface_hits_total"] == 160.0
    assert parsed['repro_phase_runs_total{phase="ess_build"}'] == 8.0
    assert parsed['repro_serve_latency_seconds_sum{phase="total"}'] == 0.0015
    assert not any(key.startswith("#") or " " in key for key in parsed)


def test_delta_treats_a_sample_absent_before_as_zero():
    delta = served.metrics_delta(served.parse_metrics(BEFORE),
                                 served.parse_metrics(AFTER))
    assert delta["repro_serve_surface_hits_total"] == 60.0
    assert delta["repro_serve_surface_builds_total"] == 12.0
    assert delta['repro_phase_runs_total{phase="ess_build"}'] == 3.0


def test_scrape_delta_becomes_the_surface_metrics():
    import serve_common
    from context import Report

    report = Report()
    serve_common.put_scrape_delta(report, served.parse_metrics(BEFORE),
                                  served.parse_metrics(AFTER))
    assert report.value("serve.surface.hit_ratio") == 60.0 / 72.0
    assert report.value("serve.surface.evictions") == 9.0
    assert report.value("serve.ess_builds") == 3.0
    assert report.value("serve.rejected") == 2.0
