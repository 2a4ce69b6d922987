#include "engine/multi_series_db.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <functional>
#include <sstream>
#include <thread>

#include "common/logging.h"
#include "obs/http_exporter.h"
#include "storage/query_explain.h"

namespace seplsm::engine {

namespace {

std::string JsonEscaped(const std::string& value) {
  std::string out = "\"";
  for (char c : value) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

bool IsSafeChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
}

int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

/// Stripe count: next power of two >= 4× the core count, capped. More
/// stripes than writers keeps the collision probability low (W writers on
/// 4W stripes ≈ 12% chance any two share one) at 1.5 KiB per stripe.
size_t ResolveShardCount(size_t requested) {
  size_t target = requested;
  if (target == 0) {
    size_t hw = std::thread::hardware_concurrency();
    target = (hw == 0 ? 1 : hw) * 4;
  }
  target = std::min<size_t>(target, 256);
  size_t n = 1;
  while (n < target) n <<= 1;
  return n;
}

}  // namespace

std::string MultiSeriesDB::EscapeSeriesName(const std::string& series) {
  std::string out = "s_";  // prefix so nothing collides with engine files
  for (char c : series) {
    if (IsSafeChar(c) && c != '%') {
      out += c;
    } else {
      char buf[4];
      std::snprintf(buf, sizeof(buf), "%%%02X",
                    static_cast<unsigned char>(c));
      out += buf;
    }
  }
  return out;
}

Result<std::string> MultiSeriesDB::UnescapeSeriesName(
    const std::string& escaped) {
  if (escaped.rfind("s_", 0) != 0) {
    return Status::InvalidArgument(escaped + ": not a series directory");
  }
  std::string out;
  for (size_t i = 2; i < escaped.size(); ++i) {
    if (escaped[i] == '%') {
      if (i + 2 >= escaped.size()) {
        return Status::Corruption(escaped + ": truncated escape");
      }
      int hi = HexValue(escaped[i + 1]);
      int lo = HexValue(escaped[i + 2]);
      if (hi < 0 || lo < 0) {
        return Status::Corruption(escaped + ": bad escape");
      }
      out += static_cast<char>(hi * 16 + lo);
      i += 2;
    } else {
      out += escaped[i];
    }
  }
  return out;
}

MultiSeriesDB::Shard& MultiSeriesDB::ShardFor(const std::string& series) {
  return *shards_[std::hash<std::string>{}(series) & shard_mask_];
}

std::unique_lock<std::mutex> MultiSeriesDB::LockShard(Shard& shard) {
  std::unique_lock<std::mutex> lock(shard.mutex, std::try_to_lock);
  if (!lock.owns_lock()) {
    // The stripe is held: either two writers hashed onto it or an
    // aggregate walk is passing through. Count it — climbing
    // shard_lock_waits is the Prometheus-visible signal that the stripe
    // count no longer matches the writer count — and time the blocked
    // acquisition so the stall can be attributed (stall_shard_lock_micros
    // vs. WAL-commit vs. backpressure; DESIGN.md §15).
    shard_lock_waits_.fetch_add(1, std::memory_order_relaxed);
    const int64_t start = options_.base.clock->NowNanos();
    lock.lock();
    shard_lock_wait_micros_.fetch_add(
        static_cast<uint64_t>(
            (options_.base.clock->NowNanos() - start) / 1000),
        std::memory_order_relaxed);
  }
  return lock;
}

Result<std::unique_ptr<MultiSeriesDB>> MultiSeriesDB::Open(
    MultiOptions options) {
  if (options.base.dir.empty()) {
    return Status::InvalidArgument("MultiOptions::base.dir must be set");
  }
  SEPLSM_RETURN_IF_ERROR(
      options.base.env->CreateDirIfMissing(options.base.dir));
  if (options.base.block_cache == nullptr &&
      options.base.block_cache_bytes > 0) {
    // One cache — one memory budget — for every series engine; each engine
    // draws its own owner id so per-series file numbers never collide.
    options.base.block_cache = std::make_shared<storage::BlockCache>(
        options.base.block_cache_bytes, options.base.block_cache_shards);
  }
  if (options.base.background_mode && options.base.job_scheduler == nullptr) {
    // One pool — one thread budget — for every series engine. Per-engine
    // tokens keep each series' flush/compaction serialized while distinct
    // series run in parallel across the workers.
    size_t threads = options.base.background_threads != 0
                         ? options.base.background_threads
                         : std::thread::hardware_concurrency();
    options.base.job_scheduler = std::make_shared<JobScheduler>(threads);
  }
  if (options.base.enable_wal && options.base.wal_group_commit &&
      options.base.wal_committer == nullptr) {
    // One commit thread — one fsync stream — for every series engine:
    // concurrent appends across series batch into shared commit rounds
    // instead of issuing a serialized fsync per series.
    options.base.wal_committer = std::make_shared<storage::GroupCommitter>();
  }
  // One aggregate dump timer for the database instead of one per series.
  const uint64_t dump_interval = options.base.stats_dump_interval_ms;
  options.base.stats_dump_interval_ms = 0;
  std::unique_ptr<MultiSeriesDB> db(new MultiSeriesDB(std::move(options)));
  const size_t shard_count =
      ResolveShardCount(db->options_.ingest_shards);
  db->shards_.reserve(shard_count);
  for (size_t i = 0; i < shard_count; ++i) {
    db->shards_.push_back(std::make_unique<Shard>());
  }
  db->shard_mask_ = shard_count - 1;
  if (db->options_.series_bloom) {
    db->series_bloom_ =
        std::make_unique<SeriesBloom>(db->options_.series_bloom_bits);
  }
  if (dump_interval > 0) {
    MultiSeriesDB* raw = db.get();
    db->stats_dumper_.Start(dump_interval, [raw] {
      SEPLSM_LOG(Info) << "stats dump [" << raw->options_.base.dir
                       << ", series=" << raw->series_count()
                       << "]: " << raw->GetAggregateMetrics().ToString();
    });
  }

  // Recover existing series: every "s_*" child directory.
  std::vector<std::string> children;
  // A flat Env has no directory listing of directories; we detect series by
  // listing the root and re-opening anything that unescapes. PosixEnv lists
  // directories as children too; MemEnv needs the probe below.
  Status st = db->options_.base.env->ListDir(db->options_.base.dir, &children);
  if (st.ok()) {
    for (const auto& child : children) {
      auto name = UnescapeSeriesName(child);
      if (!name.ok()) continue;  // unrelated file
      Shard& shard = db->ShardFor(*name);
      std::lock_guard<std::mutex> lock(shard.mutex);
      Series* series = nullptr;
      SEPLSM_RETURN_IF_ERROR(db->OpenSeriesLocked(shard, *name, &series));
    }
  }
  // Register the HTTP surface last: handlers observe a fully recovered
  // database.
  db->RegisterExporterEndpoints();
  return db;
}

MultiSeriesDB::~MultiSeriesDB() {
  // Endpoint handlers walk the shards; deregistration blocks until every
  // in-flight scrape left, so no handler can observe the teardown below.
  DeregisterExporterEndpoints();
  // The dump callback iterates the shards; stop it before teardown.
  stats_dumper_.Stop();
  // Engines first: each destructor drains its scheduler token. The shared
  // scheduler (held by options_.base.job_scheduler) dies last, with every
  // queue already empty.
  shards_.clear();
}

Status MultiSeriesDB::CloseSeries(const std::string& series) {
  Series entry;
  Shard& shard = ShardFor(series);
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.series.find(series);
    if (it == shard.series.end()) return Status::NotFound("series " + series);
    entry = std::move(it->second);
    shard.series.erase(it);
  }
  // `entry` dies here, outside the shard lock: the engine destructor drains
  // this series' background jobs, which may take a while, and other series
  // — including same-shard ones — must keep appending meanwhile. (Members
  // destruct controller-before-engine, so the controller never sees a dead
  // engine.)
  return Status::OK();
}

Status MultiSeriesDB::OpenSeriesLocked(Shard& shard,
                                       const std::string& series,
                                       Series** out) {
  auto it = shard.series.find(series);
  if (it == shard.series.end()) {
    Options options = options_.base;
    options.dir =
        options_.base.dir + "/" + EscapeSeriesName(series);
    // Spans and Prometheus lines carry the user-facing series id, not the
    // escaped directory name.
    options.series_name = series;
    // The database registers one aggregate endpoint set on the shared
    // exporter; thousands of child engines must not each claim /metrics.
    options.http_exporter = nullptr;
    auto engine = TsEngine::Open(std::move(options));
    if (!engine.ok()) return engine.status();
    Series entry;
    entry.engine = std::move(engine).value();
    if (options_.adaptive) {
      entry.controller = std::make_unique<analyzer::AdaptiveController>(
          entry.engine.get(), options_.adaptive_options);
    }
    it = shard.series.emplace(series, std::move(entry)).first;
    // Publish to the bloom only after the engine opened: a failed open
    // must not leave a "present" trace for a series that does not exist.
    if (series_bloom_ != nullptr) series_bloom_->Insert(series);
  }
  *out = &it->second;
  return Status::OK();
}

Status MultiSeriesDB::Append(const std::string& series,
                             const DataPoint& point) {
  return AppendBatch(series, &point, 1);
}

Status MultiSeriesDB::AppendBatch(const std::string& series,
                                  const DataPoint* points, size_t count) {
  if (count == 0) return Status::OK();
  Shard& shard = ShardFor(series);
  Series* entry = nullptr;
  {
    std::unique_lock<std::mutex> lock = LockShard(shard);
    SEPLSM_RETURN_IF_ERROR(OpenSeriesLocked(shard, series, &entry));
    if (entry->controller != nullptr) {
      // Observe runs under the shard lock (it mutates per-series analyzer
      // state and may switch the engine policy); one ObserveBatch call per
      // batch. With lock striping this no longer serializes unrelated
      // series — only same-shard colliders wait, and those show up in
      // shard_lock_waits.
      SEPLSM_RETURN_IF_ERROR(entry->controller->ObserveBatch(points, count));
    }
  }
  // The engine has its own internal locking; map nodes are pointer-stable,
  // and CloseSeries requires no in-flight operations on the closed series,
  // so `entry` stays valid here without the shard lock.
  return entry->engine->AppendBatch(points, count);
}

Status MultiSeriesDB::Query(const std::string& series, int64_t lo, int64_t hi,
                            std::vector<DataPoint>* out, QueryStats* stats) {
  // Negative probes resolve before any shard mutex: a dashboard scanning
  // ids that mostly do not exist here never contends with appenders.
  if (series_bloom_ != nullptr && !series_bloom_->MayContain(series)) {
    blooms_negative_.fetch_add(1, std::memory_order_relaxed);
    if (stats != nullptr) {
      // The reset wipes the caller's explain attachment; save it so the
      // bloom rejection itself lands in the trace.
      storage::QueryExplain* explain = stats->explain;
      *stats = QueryStats();
      stats->explain = explain;
      stats->pruning.blooms_negative = 1;
      if (explain != nullptr) explain->RecordBloomNegative(series);
    }
    return Status::NotFound("series " + series);
  }
  Shard& shard = ShardFor(series);
  Series* entry = nullptr;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.series.find(series);
    if (it == shard.series.end()) {
      return Status::NotFound("series " + series);
    }
    entry = &it->second;
  }
  return entry->engine->Query(lo, hi, out, stats);
}

Status MultiSeriesDB::FlushAll() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    for (auto& [name, entry] : shard->series) {
      (void)name;
      SEPLSM_RETURN_IF_ERROR(entry.engine->FlushAll());
    }
  }
  return Status::OK();
}

std::vector<std::string> MultiSeriesDB::ListSeries() {
  std::vector<std::string> out;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    for (const auto& [name, entry] : shard->series) {
      (void)entry;
      out.push_back(name);
    }
  }
  // Stripe layout is an implementation detail; callers see sorted ids
  // exactly as the single-registry version returned them.
  std::sort(out.begin(), out.end());
  return out;
}

size_t MultiSeriesDB::series_count() {
  size_t n = 0;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    n += shard->series.size();
  }
  return n;
}

Result<Metrics> MultiSeriesDB::GetSeriesMetrics(const std::string& series) {
  Shard& shard = ShardFor(series);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.series.find(series);
  if (it == shard.series.end()) return Status::NotFound("series " + series);
  return it->second.engine->GetMetrics();
}

Metrics MultiSeriesDB::GetAggregateMetrics() {
  // Walk shards collecting engine pointers name-sorted first, so the
  // aggregate's concatenated event vectors keep the stripe-independent
  // series order the single-registry version had.
  std::vector<std::pair<std::string, Metrics>> per_series;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    for (auto& [name, entry] : shard->series) {
      per_series.emplace_back(name, entry.engine->GetMetrics());
    }
  }
  std::sort(per_series.begin(), per_series.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  Metrics total;
  for (auto& [name, metrics] : per_series) {
    (void)name;
    total.MergeFrom(metrics);
  }
  // DB-level counters: bloom rejections and shard contention never reach a
  // series engine, so they are added here rather than in any per-series
  // Metrics.
  total.blooms_negative += blooms_negative_.load(std::memory_order_relaxed);
  total.shard_lock_waits +=
      shard_lock_waits_.load(std::memory_order_relaxed);
  total.stall_shard_lock_micros +=
      shard_lock_wait_micros_.load(std::memory_order_relaxed);
  return total;
}

Result<PolicyConfig> MultiSeriesDB::GetSeriesPolicy(
    const std::string& series) {
  Shard& shard = ShardFor(series);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.series.find(series);
  if (it == shard.series.end()) return Status::NotFound("series " + series);
  return it->second.engine->options().policy;
}

std::string MultiSeriesDB::HealthJson(bool* ok) {
  std::vector<std::pair<std::string, std::string>> unhealthy;
  size_t total = 0;
  bool all_ok = true;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    for (auto& [name, entry] : shard->series) {
      ++total;
      EngineHealth health = entry.engine->GetHealth();
      if (!health.ok) {
        all_ok = false;
        unhealthy.emplace_back(name, health.ToJson());
      }
    }
  }
  if (ok != nullptr) *ok = all_ok;
  std::sort(unhealthy.begin(), unhealthy.end());
  constexpr size_t kMaxUnhealthy = 16;
  const size_t shown = std::min(unhealthy.size(), kMaxUnhealthy);
  std::ostringstream out;
  out << "{\"ok\":" << (all_ok ? "true" : "false")
      << ",\"series_count\":" << total << ",\"unhealthy_count\":"
      << unhealthy.size() << ",\"unhealthy\":[";
  for (size_t i = 0; i < shown; ++i) {
    if (i > 0) out << ",";
    out << "{\"series\":" << JsonEscaped(unhealthy[i].first)
        << ",\"health\":" << unhealthy[i].second << "}";
  }
  out << "]}";
  return out.str();
}

std::string MultiSeriesDB::DebugLsmJson(size_t max_series) {
  std::vector<std::pair<std::string, std::string>> entries;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    for (auto& [name, entry] : shard->series) {
      entries.emplace_back(name, entry.engine->DebugLsmJson());
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  const size_t total = entries.size();
  const size_t shown = std::min(total, max_series);
  std::ostringstream out;
  out << "{\"series_count\":" << total
      << ",\"series_omitted\":" << total - shown << ",\"series\":[";
  for (size_t i = 0; i < shown; ++i) {
    if (i > 0) out << ",";
    out << "{\"series\":" << JsonEscaped(entries[i].first)
        << ",\"lsm\":" << entries[i].second << "}";
  }
  out << "]}";
  return out.str();
}

std::string MultiSeriesDB::DebugPolicyJson(size_t max_series) {
  struct Row {
    std::string name;
    std::string policy;
    std::string audit;  ///< empty when the series has no controller
  };
  std::vector<Row> rows;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    for (auto& [name, entry] : shard->series) {
      Row row;
      row.name = name;
      row.policy = entry.engine->options().policy.ToString();
      if (entry.controller != nullptr) {
        row.audit = entry.controller->AuditJson();
      }
      rows.push_back(std::move(row));
    }
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.name < b.name; });
  const size_t total = rows.size();
  const size_t shown = std::min(total, max_series);
  std::ostringstream out;
  out << "{\"adaptive\":" << (options_.adaptive ? "true" : "false")
      << ",\"series_count\":" << total
      << ",\"series_omitted\":" << total - shown << ",\"series\":[";
  for (size_t i = 0; i < shown; ++i) {
    if (i > 0) out << ",";
    out << "{\"series\":" << JsonEscaped(rows[i].name)
        << ",\"policy\":" << JsonEscaped(rows[i].policy) << ",\"audit\":"
        << (rows[i].audit.empty() ? "null" : rows[i].audit) << "}";
  }
  out << "]}";
  return out.str();
}

void MultiSeriesDB::RegisterExporterEndpoints() {
  obs::HttpExporter* exporter = options_.base.http_exporter.get();
  if (exporter == nullptr) return;
  MultiSeriesDB* db = this;
  auto add = [&](const std::string& path, obs::HttpExporter::Handler h) {
    exporter->RegisterHandler(path, std::move(h));
    exporter_paths_.push_back(path);
  };
  // `db` (this) is safe to capture: the destructor deregisters these paths
  // before any shard is torn down, and deregistration drains in-flight
  // handler invocations.
  add("/metrics", [db](const obs::HttpExporter::Request&) {
    obs::HttpExporter::Response response;
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    std::string body = db->GetAggregateMetrics().ToPrometheus();
    telemetry::Telemetry* t = db->telemetry();
    if (telemetry::Active(t)) {
      // The engine counter names double in the telemetry registry
      // (BumpCounter mirrors); exclude them so no family is emitted twice.
      body += t->registry().ToPrometheus(std::string(),
                                         Metrics::CounterNames());
    }
    response.body = std::move(body);
    return response;
  });
  add("/stats", [db](const obs::HttpExporter::Request&) {
    obs::HttpExporter::Response response;
    response.content_type = "application/json";
    std::ostringstream body;
    body << "{\"dir\":" << JsonEscaped(db->options_.base.dir)
         << ",\"series_count\":" << db->series_count()
         << ",\"engine\":" << db->GetAggregateMetrics().ToJson();
    telemetry::Telemetry* t = db->telemetry();
    if (telemetry::Active(t)) {
      body << ",\"telemetry\":" << t->registry().ToJson();
    }
    body << ",\"health\":" << db->HealthJson() << "}";
    response.body = body.str();
    return response;
  });
  add("/healthz", [db](const obs::HttpExporter::Request&) {
    obs::HttpExporter::Response response;
    response.content_type = "application/json";
    bool ok = true;
    response.body = db->HealthJson(&ok);
    response.status = ok ? 200 : 503;
    return response;
  });
  add("/debug/lsm", [db](const obs::HttpExporter::Request&) {
    obs::HttpExporter::Response response;
    response.content_type = "application/json";
    response.body = db->DebugLsmJson();
    return response;
  });
  add("/debug/policy", [db](const obs::HttpExporter::Request&) {
    obs::HttpExporter::Response response;
    response.content_type = "application/json";
    response.body = db->DebugPolicyJson();
    return response;
  });
}

void MultiSeriesDB::DeregisterExporterEndpoints() {
  obs::HttpExporter* exporter = options_.base.http_exporter.get();
  if (exporter == nullptr) return;
  for (const std::string& path : exporter_paths_) {
    exporter->DeregisterHandler(path);
  }
  exporter_paths_.clear();
}

}  // namespace seplsm::engine
