#include "obs/stats_json.hh"

#include <cctype>
#include <cstdio>

#include "obs/json.hh"

#ifndef PIPM_GIT_DESCRIBE
#define PIPM_GIT_DESCRIBE "unknown"
#endif

namespace pipm
{

std::uint64_t
intervalFieldTotal(const JsonValue &intervals, const RunResultField &f,
                   bool *found)
{
    bool any = false;
    std::uint64_t sum = 0;
    const JsonValue *counters = intervals.find("counters");
    const JsonValue *samples = intervals.find("samples");
    if (!counters || !counters->isArray() || !samples || !samples->isArray())
        return 0;
    for (std::size_t i = 0; i < counters->arr.size(); ++i) {
        if (!f.sums(counters->arr[i].raw))
            continue;
        any = true;
        for (const JsonValue &sample : samples->arr) {
            const JsonValue *deltas = sample.find("counters");
            if (deltas && deltas->isArray() && i < deltas->arr.size())
                sum += deltas->arr[i].asU64();
        }
    }
    if (found)
        *found = any;
    return sum;
}

std::string
gitDescribe()
{
    return PIPM_GIT_DESCRIBE;
}

std::string
renderStatsJson(const StatsJsonMeta &meta, const RunResult &r,
                const MetricsRegistry &registry, const ObsTrace *trace)
{
    std::string out;
    out.reserve(4096);
    out += "{\n";

    out += "\"schema_version\": 1,\n";

    out += "\"meta\": {";
    out += "\"workload\": " + jsonQuote(meta.workload);
    out += ", \"scheme\": " + jsonQuote(meta.scheme);
    out += ", \"seed\": " + std::to_string(meta.seed);
    out += ", \"warmup_refs_per_core\": " +
           std::to_string(meta.warmupRefsPerCore);
    out += ", \"measure_refs_per_core\": " +
           std::to_string(meta.measureRefsPerCore);
    out += ", \"interval_accesses\": " +
           std::to_string(meta.intervalAccesses);
    out += ", \"config_hash\": " + jsonQuote(meta.configHash);
    out += ", \"git_describe\": " + jsonQuote(gitDescribe());
    out += "},\n";

    out += "\"totals\": {";
    for (const RunResultField &f : runResultFields) {
        if (&f != runResultFields)
            out += ", ";
        out += jsonQuote(f.name) + ": " +
               (f.u64 ? std::to_string(r.*f.u64) : jsonNumber(f.real(r)));
    }
    out += "},\n";

    const MetricsSchema &schema = registry.schema();
    out += "\"intervals\": {\n\"counters\": [";
    for (std::size_t i = 0; i < schema.counters.size(); ++i) {
        if (i)
            out += ", ";
        out += jsonQuote(schema.counters[i]);
    }
    out += "],\n\"averages\": [";
    for (std::size_t i = 0; i < schema.averages.size(); ++i) {
        if (i)
            out += ", ";
        out += jsonQuote(schema.averages[i]);
    }
    out += "],\n\"samples\": [";
    const auto &intervals = registry.intervals();
    for (std::size_t s = 0; s < intervals.size(); ++s) {
        const IntervalSample &iv = intervals[s];
        out += s ? ",\n" : "\n";
        out += "{\"start_access\": " + std::to_string(iv.startAccess);
        out += ", \"end_access\": " + std::to_string(iv.endAccess);
        out += ", \"end_cycle\": " + std::to_string(iv.endCycle);
        out += ", \"counters\": [";
        for (std::size_t i = 0; i < iv.counterDeltas.size(); ++i) {
            if (i)
                out += ", ";
            out += std::to_string(iv.counterDeltas[i]);
        }
        out += "], \"averages\": [";
        for (std::size_t i = 0; i < iv.averageMeans.size(); ++i) {
            if (i)
                out += ", ";
            out += jsonNumber(iv.averageMeans[i]);
        }
        out += "]}";
    }
    out += "\n]\n}";

    if (trace) {
        out += ",\n\"trace\": {";
        out += "\"capacity\": " + std::to_string(trace->capacity());
        out += ", \"recorded\": " + std::to_string(trace->recorded());
        out += ", \"dropped\": " + std::to_string(trace->dropped());
        out += ", \"events\": [";
        const std::vector<ObsEvent> events = trace->snapshot();
        for (std::size_t i = 0; i < events.size(); ++i) {
            const ObsEvent &e = events[i];
            out += i ? ",\n" : "\n";
            out += "{\"cycle\": " + std::to_string(e.cycle);
            out += ", \"type\": " +
                   jsonQuote(std::string(toString(e.type)));
            out += ", \"host\": " + std::to_string(int(e.host));
            out += ", \"addr\": " + std::to_string(e.addr);
            out += ", \"aux\": " + std::to_string(e.aux);
            out += "}";
        }
        out += events.empty() ? "]" : "\n]";
        out += "}";
    }

    out += "\n}\n";
    return out;
}

bool
writeStatsJson(const std::string &path, const std::string &doc)
{
    // Atomic replace, mirroring the bench cache: readers (CI validation,
    // obs_report --file) never observe a partial document.
    const std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "[obs] warning: cannot write %s\n",
                     tmp.c_str());
        return false;
    }
    const bool wrote =
        std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
    const bool closed = std::fclose(f) == 0;
    if (!wrote || !closed || std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::fprintf(stderr, "[obs] warning: cannot replace %s\n",
                     path.c_str());
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

std::vector<std::string>
validateStatsJson(const std::string &text)
{
    std::vector<std::string> errors;
    auto err = [&](const std::string &msg) { errors.push_back(msg); };

    std::string parse_error;
    const auto doc = parseJson(text, &parse_error);
    if (!doc) {
        err("not valid JSON: " + parse_error);
        return errors;
    }
    if (!doc->isObject()) {
        err("document root is not an object");
        return errors;
    }

    const JsonValue *version = doc->find("schema_version");
    if (!version || !version->isNumber() || version->asU64() != 1)
        err("schema_version missing or not 1");

    // --- meta ---------------------------------------------------------
    const JsonValue *meta = doc->find("meta");
    if (!meta || !meta->isObject()) {
        err("meta missing or not an object");
    } else {
        for (const char *key : {"workload", "scheme", "config_hash",
                                "git_describe"}) {
            const JsonValue *v = meta->find(key);
            if (!v || !v->isString())
                err(std::string("meta.") + key + " missing or not a string");
        }
        for (const char *key : {"seed", "warmup_refs_per_core",
                                "measure_refs_per_core",
                                "interval_accesses"}) {
            const JsonValue *v = meta->find(key);
            if (!v || !v->isNumber())
                err(std::string("meta.") + key + " missing or not a number");
        }
        const JsonValue *hash = meta->find("config_hash");
        if (hash && hash->isString()) {
            bool hex = hash->raw.size() == 16;
            for (char c : hash->raw)
                hex = hex && std::isxdigit(static_cast<unsigned char>(c));
            if (!hex)
                err("meta.config_hash is not 16 hex characters");
        }
        const JsonValue *interval = meta->find("interval_accesses");
        if (interval && interval->isNumber() && interval->asU64() == 0)
            err("meta.interval_accesses must be positive");
    }

    // --- totals -------------------------------------------------------
    const JsonValue *totals = doc->find("totals");
    if (!totals || !totals->isObject()) {
        err("totals missing or not an object");
        return errors;
    }
    for (const RunResultField &f : runResultFields) {
        const JsonValue *v = totals->find(f.name);
        if (!v || !v->isNumber())
            err(std::string("totals.") + f.name +
                " missing or not a number");
    }

    // --- intervals ----------------------------------------------------
    const JsonValue *intervals = doc->find("intervals");
    if (!intervals || !intervals->isObject()) {
        err("intervals missing or not an object");
        return errors;
    }
    const JsonValue *counters = intervals->find("counters");
    const JsonValue *averages = intervals->find("averages");
    const JsonValue *samples = intervals->find("samples");
    if (!counters || !counters->isArray()) {
        err("intervals.counters missing or not an array");
        return errors;
    }
    if (!averages || !averages->isArray()) {
        err("intervals.averages missing or not an array");
        return errors;
    }
    if (!samples || !samples->isArray()) {
        err("intervals.samples missing or not an array");
        return errors;
    }
    for (const JsonValue &name : counters->arr)
        if (!name.isString())
            err("intervals.counters contains a non-string name");
    for (const JsonValue &name : averages->arr)
        if (!name.isString())
            err("intervals.averages contains a non-string name");

    std::uint64_t prev_end = 0;
    Cycles prev_cycle = 0;
    for (std::size_t s = 0; s < samples->arr.size(); ++s) {
        const JsonValue &sample = samples->arr[s];
        const std::string where =
            "intervals.samples[" + std::to_string(s) + "]";
        if (!sample.isObject()) {
            err(where + " is not an object");
            continue;
        }
        const JsonValue *start = sample.find("start_access");
        const JsonValue *end = sample.find("end_access");
        const JsonValue *cycle = sample.find("end_cycle");
        const JsonValue *cdeltas = sample.find("counters");
        const JsonValue *ameans = sample.find("averages");
        if (!start || !start->isNumber() || !end || !end->isNumber() ||
            !cycle || !cycle->isNumber()) {
            err(where + " missing start_access/end_access/end_cycle");
            continue;
        }
        if (start->asU64() != prev_end)
            err(where + " does not start where the previous one ended");
        if (end->asU64() <= start->asU64())
            err(where + " is empty or goes backwards");
        if (cycle->asU64() < prev_cycle)
            err(where + " end_cycle goes backwards");
        prev_end = end->asU64();
        prev_cycle = cycle->asU64();
        if (!cdeltas || !cdeltas->isArray() ||
            cdeltas->arr.size() != counters->arr.size())
            err(where + ".counters length mismatches the schema");
        if (!ameans || !ameans->isArray() ||
            ameans->arr.size() != averages->arr.size())
            err(where + ".averages length mismatches the schema");
    }

    // --- accounting: interval sums == totals --------------------------
    // Columns whose subsystem was not in the run are absent from the
    // schema; the rule then degrades to "total must be 0".
    for (const RunResultField &f : runResultFields) {
        const JsonValue *total = totals->find(f.name);
        if (f.kind != RunResultField::counter || !total ||
            !total->isNumber())
            continue;   // missing totals were reported above
        bool found = false;
        const std::uint64_t sum = intervalFieldTotal(*intervals, f, &found);
        if (!found && total->asU64() != 0)
            err(std::string("totals.") + f.name +
                " is nonzero but no interval column produces it");
        else if (found && sum != total->asU64())
            err(std::string("totals.") + f.name + " (" +
                std::to_string(total->asU64()) +
                ") != sum of interval deltas (" + std::to_string(sum) +
                ")");
    }

    // --- trace (optional) ---------------------------------------------
    if (const JsonValue *trace = doc->find("trace")) {
        if (!trace->isObject()) {
            err("trace is not an object");
            return errors;
        }
        const JsonValue *capacity = trace->find("capacity");
        const JsonValue *recorded = trace->find("recorded");
        const JsonValue *dropped = trace->find("dropped");
        const JsonValue *events = trace->find("events");
        if (!capacity || !capacity->isNumber() || !recorded ||
            !recorded->isNumber() || !dropped || !dropped->isNumber() ||
            !events || !events->isArray()) {
            err("trace missing capacity/recorded/dropped/events");
            return errors;
        }
        if (recorded->asU64() != events->arr.size() + dropped->asU64())
            err("trace.recorded != events + dropped");
        if (events->arr.size() > capacity->asU64())
            err("trace holds more events than its capacity");
        for (std::size_t i = 0; i < events->arr.size(); ++i) {
            const JsonValue &e = events->arr[i];
            const std::string where =
                "trace.events[" + std::to_string(i) + "]";
            if (!e.isObject()) {
                err(where + " is not an object");
                continue;
            }
            for (const char *key : {"cycle", "host", "addr", "aux"}) {
                const JsonValue *v = e.find(key);
                if (!v || !v->isNumber())
                    err(where + "." + key + " missing or not a number");
            }
            const JsonValue *type = e.find("type");
            if (!type || !type->isString())
                err(where + ".type missing or not a string");
        }
    }

    return errors;
}

} // namespace pipm
