// bench_serve — load generator for wsdd, the HTTP analysis server.
//
// Measures QPS and p50/p99 request latency at 1/8/64 concurrent
// keep-alive clients against a warm scan cache, plus the cold-start
// latency of the first request (which runs a real scan). By default the
// server runs in-process on an ephemeral port; `--connect=HOST:PORT`
// aims the load at an external wsdd instead (the CI serve-smoke job does
// this to also exercise the process/signal surface).
//
// Flags: --smoke       (small sweep for CI: 1/8 clients, fewer requests)
//        --connect=H:P (external server; cold phase skipped)
//        --requests=N  (requests per client per level; default 400)
//        --entities=N --seed=N --scale=F (in-process corpus; default
//                      2000 entities so one core sustains >1k QPS)
//        --metrics_out=BENCH_serve.json (commit as the baseline)
// A malformed numeric flag (--requests below 1, --scale not positive, a
// non-number) exits 2 naming the flag.

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "serve/endpoints.h"
#include "serve/http_client.h"
#include "serve/scan_cache.h"
#include "serve/server.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace wsd {
namespace {

struct SweepResult {
  uint32_t clients = 0;
  uint64_t requests = 0;
  uint64_t failures = 0;
  double wall_seconds = 0;
  double qps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
};

double Percentile(std::vector<double>* sorted_ms, double q) {
  if (sorted_ms->empty()) return 0;
  const size_t idx = std::min(
      sorted_ms->size() - 1,
      static_cast<size_t>(q * static_cast<double>(sorted_ms->size())));
  return (*sorted_ms)[idx];
}

// Drives `clients` keep-alive connections, each issuing `per_client`
// GETs of `target`, and aggregates latency.
SweepResult RunSweep(const std::string& host, uint16_t port,
                     const std::string& target, uint32_t clients,
                     uint32_t per_client) {
  std::vector<std::vector<double>> latencies(clients);
  std::vector<uint64_t> failures(clients, 0);
  std::vector<std::thread> threads;
  const Timer wall;
  for (uint32_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      HttpClient client;
      if (!client.Connect(host, port).ok()) {
        failures[c] = per_client;
        return;
      }
      latencies[c].reserve(per_client);
      for (uint32_t i = 0; i < per_client; ++i) {
        const Timer t;
        auto response = client.Get(target);
        if (!response.ok() || response->status != 200) {
          ++failures[c];
          continue;
        }
        latencies[c].push_back(t.ElapsedMillis());
      }
    });
  }
  for (auto& t : threads) t.join();

  SweepResult result;
  result.clients = clients;
  result.wall_seconds = wall.ElapsedSeconds();
  std::vector<double> all;
  for (const auto& per_thread : latencies) {
    all.insert(all.end(), per_thread.begin(), per_thread.end());
  }
  for (uint64_t f : failures) result.failures += f;
  result.requests = all.size();
  std::sort(all.begin(), all.end());
  result.qps = result.wall_seconds > 0
                   ? static_cast<double>(result.requests) / result.wall_seconds
                   : 0;
  result.p50_ms = Percentile(&all, 0.50);
  result.p99_ms = Percentile(&all, 0.99);
  return result;
}

int Main(int argc, char** argv) {
  bench::MetricsExport metrics_export(argc, argv, "bench_serve");
  const FlagParser flags(argc, argv);
  const bool smoke = flags.Has("smoke");

  StudyOptions options = bench::Options(argc, argv);
  if (!flags.Has("entities")) {
    // Small default corpus: the bench measures the serving layer, not
    // the scan, and one core must sustain >1k QPS on a warm cache.
    options.num_entities = 2000;
  }
  uint32_t per_client = smoke ? 50 : 400;
  if (const Status status = flags.ReadUint("requests", &per_client, 1);
      !status.ok()) {
    std::cerr << status << "\n";
    return 2;
  }
  const std::vector<uint32_t> levels =
      smoke ? std::vector<uint32_t>{1, 8} : std::vector<uint32_t>{1, 8, 64};

  bench::PrintHeader(
      "bench_serve: wsdd QPS / latency under concurrent load",
      "north star: serving the paper's analyses at interactive rates",
      options);

  std::string host = "127.0.0.1";
  uint16_t port = 0;
  std::unique_ptr<ScanHandleCache> cache;
  std::unique_ptr<ServeContext> ctx;
  std::unique_ptr<HttpServer> server;
  const bool external = flags.Has("connect");
  auto& registry = MetricsRegistry::Global();

  const std::string target = "/spread?domain=restaurants&attr=phone";
  if (external) {
    const std::string spec = flags.GetOr("connect", "");
    const size_t colon = spec.rfind(':');
    const auto parsed = colon == std::string::npos
                            ? std::nullopt
                            : ParseUint64(spec.substr(colon + 1));
    if (!parsed.has_value()) {
      std::cerr << "bad --connect (want HOST:PORT)\n";
      return 2;
    }
    host = spec.substr(0, colon);
    port = static_cast<uint16_t>(*parsed);
    std::cout << "external server " << host << ":" << port
              << " (cold phase skipped)\n\n";
  } else {
    cache = std::make_unique<ScanHandleCache>(options, 256u * 1024 * 1024);
    ctx = std::make_unique<ServeContext>();
    ctx->base = options;
    ctx->cache = cache.get();
    ServerOptions server_options;
    server_options.port = 0;
    server_options.connection_threads = levels.back() + 2;
    server = std::make_unique<HttpServer>(ctx.get(), server_options);
    const Status status = server->Start();
    if (!status.ok()) {
      std::cerr << "server failed to start: " << status.ToString() << "\n";
      return 1;
    }
    port = server->port();

    // Cold store: the very first request pays for the full scan.
    HttpClient probe;
    if (!probe.Connect(host, port).ok()) {
      std::cerr << "cannot connect to in-process server\n";
      return 1;
    }
    const Timer cold;
    auto first = probe.Get(target);
    const double cold_ms = cold.ElapsedMillis();
    if (!first.ok() || first->status != 200) {
      std::cerr << "cold request failed\n";
      return 1;
    }
    std::cout << StrFormat("cold store: first request (scan+analyze) %.1f ms\n\n",
                           cold_ms);
    registry.GetGauge("wsd.serve.bench.cold_first_request_ms").Set(cold_ms);
  }

  std::cout << "warm store, target " << target << "\n";
  std::cout << "clients  requests      QPS    p50 ms    p99 ms  failures\n";
  bool ok = true;
  for (uint32_t clients : levels) {
    // At 64 clients fewer requests each keeps wall time in check.
    const uint32_t n = clients >= 64 ? std::max(per_client / 4, 10u)
                                     : per_client;
    const SweepResult r = RunSweep(host, port, target, clients, n);
    std::cout << StrFormat("%7u %9llu %8.0f %9.3f %9.3f %9llu\n", r.clients,
                           static_cast<unsigned long long>(r.requests),
                           r.qps, r.p50_ms, r.p99_ms,
                           static_cast<unsigned long long>(r.failures));
    registry.GetGauge(StrFormat("wsd.serve.bench.qps_c%u", clients))
        .Set(r.qps);
    registry.GetGauge(StrFormat("wsd.serve.bench.p50_ms_c%u", clients))
        .Set(r.p50_ms);
    registry.GetGauge(StrFormat("wsd.serve.bench.p99_ms_c%u", clients))
        .Set(r.p99_ms);
    if (r.failures > 0 || r.requests == 0 || r.qps <= 0) ok = false;
    if (clients == 8) {
      PrintAnchor("warm QPS at 8 clients", ">= 1000",
                  StrFormat("%.0f", r.qps), std::cout);
    }
  }

  if (server != nullptr) server->Shutdown();
  if (!ok) {
    std::cerr << "\nbench_serve: failures or zero throughput\n";
    return 1;
  }
  std::cout << "\nok\n";
  return 0;
}

}  // namespace
}  // namespace wsd

int main(int argc, char** argv) { return wsd::Main(argc, argv); }
