// Machine-readable bench output: each figure bench records its data points
// into a BenchReport (backed by an obs::MetricsRegistry, so figures can be
// read back from the registry like any other telemetry) and, when
// MCT_BENCH_JSON_DIR is set, writes BENCH_<name>.json there on exit.
//
// Smoke mode (MCT_BENCH_SMOKE=1) asks benches to trim their sweeps to the
// smallest configuration that still exercises every code path, so the
// bench-smoke ctest target can validate the whole pipeline in seconds.
//
// JSON schema (validated by bench_smoke_runner):
//   {"bench": "<name>",
//    "smoke": true|false,
//    "points": [{"series": "...", "x": "...", "value": <number>}, ...],
//    "metrics": {"counters": {...}, "histograms": {...}}}
#pragma once

#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"

namespace mct::bench {

inline bool smoke_mode()
{
    const char* v = std::getenv("MCT_BENCH_SMOKE");
    return v != nullptr && v[0] == '1';
}

class BenchReport {
public:
    explicit BenchReport(std::string name) : name_(std::move(name)) {}
    ~BenchReport() { write(); }

    // Record one figure data point. Negative values mean "measurement
    // failed" and are kept in the points list, so regressions are visible.
    // Points go only to the points list, at full precision: the integer
    // histograms hold what a bench records into metrics() explicitly.
    void point(const std::string& series, const std::string& x, double value)
    {
        points_.push_back({series, x, value});
        metrics_.counter("points")->add();
    }

    obs::MetricsRegistry& metrics() { return metrics_; }

    // Write BENCH_<name>.json into MCT_BENCH_JSON_DIR; no-op when the env
    // var is unset (plain terminal runs stay file-free).
    bool write()
    {
        if (written_) return true;
        written_ = true;
        const char* dir = std::getenv("MCT_BENCH_JSON_DIR");
        if (dir == nullptr || *dir == '\0') return true;
        std::string out;
        obs::JsonWriter w(&out);
        w.begin_object();
        w.key("bench");
        w.value(name_);
        w.key("smoke");
        w.value(smoke_mode());
        w.key("points");
        w.begin_array();
        for (const auto& p : points_) {
            w.begin_object();
            w.key("series");
            w.value(p.series);
            w.key("x");
            w.value(p.x);
            w.key("value");
            w.value(p.value);
            w.end_object();
        }
        w.end_array();
        w.key("metrics");
        metrics_.to_json(&out);  // appends one complete JSON object
        w.end_object();
        std::ofstream f(std::string(dir) + "/BENCH_" + name_ + ".json");
        f << out << "\n";
        return f.good();
    }

private:
    struct Point {
        std::string series;
        std::string x;
        double value;
    };

    std::string name_;
    std::vector<Point> points_;
    obs::MetricsRegistry metrics_;
    bool written_ = false;
};

}  // namespace mct::bench
