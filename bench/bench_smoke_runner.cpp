// bench-smoke: run each figure bench for one smoke iteration
// (MCT_BENCH_SMOKE=1) with JSON output enabled, then validate every emitted
// BENCH_*.json against the schema documented in bench_json.h. Wired into
// ctest so a bench whose output drifts away from the schema (or stops being
// emitted at all) fails CI, not a later plotting script.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "obs/json.h"

namespace fs = std::filesystem;
using mct::obs::JsonValue;

namespace {

bool validate(const JsonValue& doc, std::string* why)
{
    if (!doc.is_object()) {
        *why = "document is not an object";
        return false;
    }
    const JsonValue* bench = doc.get("bench");
    if (bench == nullptr || !bench->is_string() || bench->str.empty()) {
        *why = "missing/invalid \"bench\" name";
        return false;
    }
    const JsonValue* smoke = doc.get("smoke");
    if (smoke == nullptr || smoke->kind != JsonValue::Kind::boolean || !smoke->b) {
        *why = "\"smoke\" should be true under MCT_BENCH_SMOKE=1";
        return false;
    }
    const JsonValue* points = doc.get("points");
    if (points == nullptr || !points->is_array() || points->items.empty()) {
        *why = "missing/empty \"points\" array";
        return false;
    }
    for (const JsonValue& p : points->items) {
        const JsonValue* series = p.get("series");
        const JsonValue* x = p.get("x");
        const JsonValue* value = p.get("value");
        if (series == nullptr || !series->is_string() || x == nullptr ||
            !x->is_string() || value == nullptr || !value->is_number()) {
            *why = "point missing series/x/value";
            return false;
        }
    }
    const JsonValue* metrics = doc.get("metrics");
    if (metrics == nullptr || !metrics->is_object() ||
        metrics->get("counters") == nullptr || !metrics->get("counters")->is_object() ||
        metrics->get("histograms") == nullptr ||
        !metrics->get("histograms")->is_object()) {
        *why = "missing/invalid \"metrics\" object";
        return false;
    }
    // Figure points live in "points" only. A histogram fed from them would
    // hold the same series truncated to integers: same name, one sample per
    // point. (A bench's own histogram may share a series name, but records
    // its own samples.)
    std::map<std::string, size_t> per_series;
    for (const JsonValue& p : points->items) ++per_series[p.get("series")->str];
    for (const auto& [name, hist] : metrics->get("histograms")->fields) {
        auto it = per_series.find(name);
        const JsonValue* count = hist.get("count");
        if (it != per_series.end() && count != nullptr && count->is_number() &&
            count->num == static_cast<double>(it->second)) {
            *why = "histogram \"" + name + "\" duplicates the points series";
            return false;
        }
    }
    return true;
}

}  // namespace

int main(int argc, char** argv)
{
    if (argc < 2) {
        std::fprintf(stderr, "usage: bench_smoke_runner <bench binary>...\n");
        return 2;
    }
    fs::path dir = fs::current_path() / "bench-smoke-json";
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::create_directories(dir, ec);
    if (ec) {
        std::fprintf(stderr, "bench-smoke: cannot create %s\n", dir.string().c_str());
        return 2;
    }
    setenv("MCT_BENCH_SMOKE", "1", 1);
    setenv("MCT_BENCH_JSON_DIR", dir.string().c_str(), 1);

    int failures = 0;
    for (int i = 1; i < argc; ++i) {
        std::string cmd = std::string(argv[i]) + " > /dev/null 2>&1";
        int rc = std::system(cmd.c_str());
        if (rc != 0) {
            std::fprintf(stderr, "FAIL  %s exited with %d\n", argv[i], rc);
            ++failures;
        } else {
            std::printf("ran   %s\n", argv[i]);
        }
    }

    size_t validated = 0;
    for (const auto& entry : fs::directory_iterator(dir)) {
        std::ifstream f(entry.path());
        std::ostringstream text;
        text << f.rdbuf();
        auto doc = mct::obs::json_parse(text.str());
        std::string why;
        if (!doc.ok()) {
            std::fprintf(stderr, "FAIL  %s: %s\n", entry.path().string().c_str(),
                         doc.error().message.c_str());
            ++failures;
        } else if (!validate(doc.value(), &why)) {
            std::fprintf(stderr, "FAIL  %s: %s\n", entry.path().string().c_str(),
                         why.c_str());
            ++failures;
        } else {
            std::printf("ok    %s\n", entry.path().filename().string().c_str());
            ++validated;
        }
    }
    // Every bench run must have produced exactly one valid report.
    if (validated != static_cast<size_t>(argc - 1)) {
        std::fprintf(stderr, "FAIL  expected %d BENCH_*.json files, found %zu valid\n",
                     argc - 1, validated);
        ++failures;
    }
    if (failures == 0) std::printf("bench-smoke: %zu reports valid\n", validated);
    return failures == 0 ? 0 : 1;
}
