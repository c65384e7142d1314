// wsdd — the webspread analysis server. Serves the Study's analyses
// (spread, set cover, graph metrics, demand/value) over HTTP, backed by
// the shared scan cache and the on-disk artifact store. See
// docs/SERVING.md for the operator's manual.
//
// usage: wsdd [flags]
//   --port=N             listen port (default 8080; 0 picks an ephemeral
//                        port and prints it)
//   --address=A          bind address (default 127.0.0.1)
//   --artifacts=DIR      on-disk scan-artifact cache (strongly
//                        recommended: restarts then skip their scans)
//   --entities=N --seed=N --scale=F --threads=N
//                        base StudyOptions (same reader and meaning as
//                        wsdctl)
//   --cache-bytes=N      scan-cache byte budget (default 256 MiB)
//   --response-cache-bytes=N
//                        rendered-response memo budget (default 64 MiB)
//   --conn-threads=N     concurrent connections served (default 16)
//   --read-timeout-ms=N  idle/read socket timeout (default 5000)
//
// A malformed or out-of-range numeric flag exits 2, naming the flag,
// before the server binds.
//
// Shutdown: SIGINT or SIGTERM drains in-flight requests and exits 0.

#include <csignal>
#include <cstdio>
#include <unistd.h>

#include "serve/endpoints.h"
#include "serve/scan_cache.h"
#include "serve/server.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/simd.h"

namespace wsd {
namespace {

// Self-pipe: the signal handler writes one byte; main blocks on read.
// Keeps the handler async-signal-safe (no locks, no allocation).
int g_shutdown_pipe[2] = {-1, -1};

void OnSignal(int) {
  const char byte = 1;
  // write(2) is async-signal-safe; the result is irrelevant (worst case
  // the pipe is full, which still wakes the reader).
  const ssize_t ignored = ::write(g_shutdown_pipe[1], &byte, 1);
  (void)ignored;
}

int UsageError(const Status& status) {
  std::fprintf(stderr, "wsdd: %s\n", status.ToString().c_str());
  return 2;
}

int Main(int argc, char** argv) {
  const FlagParser args(argc, argv);
  if (args.Has("help")) {
    std::fputs(
        "wsdd — webspread analysis server (see docs/SERVING.md)\n"
        "flags: --port=N --address=A --artifacts=DIR --entities=N\n"
        "       --seed=N --scale=F --threads=N --cache-bytes=N\n"
        "       --response-cache-bytes=N --conn-threads=N\n"
        "       --read-timeout-ms=N\n",
        stdout);
    return 0;
  }

  // Resolve SIMD dispatch before any request runs: the startup log then
  // records the tier (and a WSD_FORCE_SCALAR override), and the
  // wsd.scan.simd_tier gauge is set for /metrics from the first scrape.
  simd::ActiveTier();

  const auto parsed = StudyOptions::FromFlags(args);
  if (!parsed.ok()) return UsageError(parsed.status());
  const StudyOptions& base = *parsed;

  size_t cache_bytes = 256u * 1024 * 1024;
  ServeContext ctx;
  size_t response_cache_bytes = ctx.responses.max_bytes();
  ServerOptions server_options;
  server_options.port = 8080;
  server_options.bind_address = args.GetOr("address", "127.0.0.1");
  for (const Status& status :
       {args.ReadUint("cache-bytes", &cache_bytes),
        args.ReadUint("response-cache-bytes", &response_cache_bytes),
        args.ReadUint("port", &server_options.port),
        args.ReadUint("conn-threads", &server_options.connection_threads, 1),
        args.ReadUint("read-timeout-ms", &server_options.read_timeout_ms,
                      1)}) {
    if (!status.ok()) return UsageError(status);
  }

  ScanHandleCache cache(base, cache_bytes);
  ctx.base = base;
  ctx.cache = &cache;
  ctx.responses.set_max_bytes(response_cache_bytes);

  if (::pipe(g_shutdown_pipe) != 0) {
    WSD_LOG(kError) << "pipe() failed; cannot install signal handlers";
    return 1;
  }
  struct sigaction sa;
  sa.sa_handler = OnSignal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
  // A client disconnecting mid-write must not kill the server.
  signal(SIGPIPE, SIG_IGN);

  HttpServer server(&ctx, server_options);
  const Status status = server.Start();
  if (!status.ok()) {
    WSD_LOG(kError) << "wsdd failed to start: " << status.ToString();
    return 1;
  }
  // Machine-readable port line (bench/tests parse this when --port=0).
  std::printf("wsdd: listening on %s:%u\n",
              server_options.bind_address.c_str(), server.port());
  std::fflush(stdout);

  char byte;
  while (::read(g_shutdown_pipe[0], &byte, 1) < 0) {
    // EINTR: the signal itself interrupted the read; retry — the byte
    // the handler wrote is still in the pipe.
  }
  WSD_LOG(kInfo) << "signal received; draining";
  server.Shutdown();
  return 0;
}

}  // namespace
}  // namespace wsd

int main(int argc, char** argv) { return wsd::Main(argc, argv); }
