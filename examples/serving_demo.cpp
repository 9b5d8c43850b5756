// Multi-tenant serving on the data plane, end to end.
//
// Generates a short bursty two-tenant arrival trace (src/data/
// arrival_trace.h), expands it into serving requests, and replays it
// through ServingFrontend over the real toy PolicyNet with deadline-aware
// admission: tenant 0 is interactive and carries a TTFT SLO, tenant 1 is
// best-effort batch. Tokens stream through the client callback as they
// are committed, TTFT-overdue requests are rejected instead of served
// late, and the per-request JSONL artifact is written for tools/hfstat.cc.
// See docs/SERVING.md.
//
// Run: ./serving_demo [requests] [seed]

#include <cstdlib>
#include <iostream>

#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/data/arrival_trace.h"
#include "src/nn/policy_net.h"
#include "src/serving/frontend.h"

int main(int argc, char** argv) {
  using namespace hybridflow;
  const int requests = argc > 1 ? std::atoi(argv[1]) : 24;
  const uint64_t seed = argc > 2 ? static_cast<uint64_t>(std::atoll(argv[2])) : 7;

  ArrivalTraceConfig trace_config;
  trace_config.shape = TraceShape::kBursty;
  trace_config.rate = 8.0;
  trace_config.duration = 6.0;
  trace_config.max_requests = requests;
  TenantSpec interactive;
  interactive.tenant = 0;
  interactive.share = 0.4;
  interactive.priority = 10;
  interactive.ttft_slo = 2.0;
  interactive.prompt_min = 4;
  interactive.prompt_max = 10;
  interactive.new_tokens_min = 4;
  interactive.new_tokens_max = 8;
  TenantSpec batch;
  batch.tenant = 1;
  batch.share = 0.6;
  batch.prompt_min = 8;
  batch.prompt_max = 20;
  batch.new_tokens_min = 8;
  batch.new_tokens_max = 16;
  trace_config.tenants = {interactive, batch};
  const std::vector<ArrivalRecord> trace = GenerateArrivalTrace(trace_config, seed);

  PolicyNetConfig net_config;
  net_config.vocab_size = 32;
  net_config.context_window = 4;
  net_config.embed_dim = 16;
  net_config.hidden_dim = 32;
  Rng net_rng(1234);
  const PolicyNet net(net_config, net_rng);

  ServingFrontendConfig config;
  config.scheduler.admission = AdmissionPolicy::kDeadline;
  config.scheduler.max_running = 4;  // Small replica: queueing is real.
  config.block_tokens = 4;
  config.seconds_per_step = 0.1;
  ServingFrontend frontend(net, config);

  std::cout << StrFormat("serving %zu requests (bursty, 2 tenants, deadline admission)\n\n",
                         trace.size());
  int64_t streamed = 0;
  const StreamCallback on_token = [&](const StreamDelta& delta) {
    ++streamed;
    if (delta.index == 0) {
      std::cout << StrFormat("  t=%5.2fs  req %-3lld first token\n", delta.time,
                             static_cast<long long>(delta.request));
    }
    return true;
  };
  const std::vector<ServingRequest> serving_requests =
      RequestsFromTrace(trace, net_config.vocab_size, seed);
  Rng rng(seed);
  const ServingResult result =
      frontend.Serve(serving_requests, /*do_sample=*/false, /*temperature=*/1.0, rng, on_token);

  std::cout << StrFormat("\n%lld tokens streamed; %lld finished, %lld expired; "
                         "KV high water %lld blocks, leaked %lld\n",
                         static_cast<long long>(streamed),
                         static_cast<long long>(result.report.finished),
                         static_cast<long long>(result.report.expired),
                         static_cast<long long>(result.kv_high_water_blocks),
                         static_cast<long long>(result.kv_leaked_blocks));
  for (const TenantServingStats& tenant : result.report.tenants) {
    std::cout << StrFormat("  tenant %lld: %lld reqs, slo %lld/%lld, ttft p99 %s\n",
                           static_cast<long long>(tenant.tenant),
                           static_cast<long long>(tenant.requests),
                           static_cast<long long>(tenant.slo_attained),
                           static_cast<long long>(tenant.finished),
                           HumanSeconds(tenant.ttft.p99).c_str());
  }
  if (result.kv_leaked_blocks != 0) {
    std::cerr << "KV LEAK\n";
    return 1;
  }
  const char* artifact = "serving_demo_requests.jsonl";
  if (!WriteRequestRecordsJsonl(artifact, result.records)) {
    std::cerr << "failed to write " << artifact << "\n";
    return 1;
  }
  std::cout << "\nper-request JSONL written to " << artifact << " (analyze with hfstat)\n";
  return 0;
}
