#include "serve.hpp"

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "flow.hpp"
#include "src/core/model_cache.hpp"
#include "src/core/pipeline.hpp"
#include "src/lint/lint.hpp"
#include "src/server/client.hpp"
#include "src/server/protocol.hpp"
#include "src/server/service.hpp"
#include "src/stg/g_format.hpp"
#include "src/util/error.hpp"
#include "src/util/json.hpp"
#include "src/util/stopwatch.hpp"
#include "src/util/xorshift.hpp"

extern char** environ;

namespace puntbench {
namespace {

using punt::server::Client;
using punt::server::Op;
using punt::server::Request;
using punt::server::Response;

/// Daemon start-ups per run (each one warmed up); setup_s is their median.
constexpr std::size_t kServeSetupRepeats = 3;
/// A run carries at least this many synth requests, so that their p99 has
/// ten samples beyond it.
constexpr std::size_t kMinSynthRequests = 1000;
constexpr double kDaemonStartSeconds = 60;
constexpr double kDaemonStopSeconds = 60;
/// At most this many problems are kept per client for the report.
constexpr std::size_t kProblemsPerClient = 5;

/// The CPUs this process may run on: what `nproc` prints.
std::size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

/// Reads a whole small file; empty when it cannot be read.
std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

/// A `punt serve` child process listening on a Unix socket in a private
/// directory under .bench_build/ (mode 0700, from mkdtemp).  The daemon
/// keeps `<socket>.lock` by design, so the directory, lock included, is
/// removed once the daemon has exited.
class Daemon {
 public:
  explicit Daemon(std::size_t jobs) {
    std::filesystem::create_directories(".bench_build");
    char dir[] = ".bench_build/serve-XXXXXX";
    if (mkdtemp(dir) == nullptr) throw punt::Error("cannot create a socket directory");
    dir_ = dir;
    socket_ = dir_ + "/punt.sock";
    log_ = dir_ + "/daemon.log";
    std::vector<std::string> words = {PUNTBENCH_PUNT_CLI, "serve", "--socket=" + socket_,
                                      "--jobs=" + std::to_string(jobs)};
    std::vector<char*> argv;
    for (std::string& word : words) argv.push_back(word.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, log_.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                                     0600);
    posix_spawn_file_actions_adddup2(&actions, 1, 2);
    const int rc = posix_spawn(&pid_, argv[0], &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
      pid_ = -1;
      std::filesystem::remove_all(dir_);
      throw punt::Error(std::string("cannot start ") + PUNTBENCH_PUNT_CLI);
    }
    try {
      wait_until_ready();
    } catch (...) {
      (void)stop();
      throw;
    }
  }

  ~Daemon() { (void)stop(); }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  const std::string& socket() const { return socket_; }

  /// User plus system CPU seconds of the daemon so far (/proc/<pid>/stat).
  double cpu_seconds() const {
    const std::string stat = read_file("/proc/" + std::to_string(pid_) + "/stat");
    const std::size_t paren = stat.rfind(')');
    if (paren == std::string::npos) throw punt::Error("cannot read the daemon's CPU time");
    std::istringstream fields(stat.substr(paren + 2));
    std::string field;
    double ticks = 0;
    // Fields 3..15 of proc(5): utime and stime are the 12th and 13th here.
    for (int i = 1; i <= 13 && fields >> field; ++i) {
      if (i >= 12) ticks += std::strtod(field.c_str(), nullptr);
    }
    return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
  }

  /// Peak resident set size of the daemon so far, in MiB (VmHWM).
  double peak_rss_mb() const {
    std::istringstream status(read_file("/proc/" + std::to_string(pid_) + "/status"));
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    throw punt::Error("cannot read the daemon's peak RSS");
  }

  /// Asks the daemon to shut down, waits for it (killing it after
  /// kDaemonStopSeconds) and removes its directory.  True when it exited
  /// on its own with status 0.
  bool stop() {
    bool clean = false;
    if (pid_ > 0) {
      try {
        Request shutdown;
        shutdown.op = Op::Shutdown;
        (void)punt::server::request_once(socket_, shutdown);
      } catch (const std::exception&) {
        ::kill(pid_, SIGTERM);
      }
      int status = 0;
      punt::Stopwatch waited;
      pid_t done = 0;
      while ((done = waitpid(pid_, &status, WNOHANG)) == 0 &&
             waited.seconds() < kDaemonStopSeconds) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      if (done == 0) {
        ::kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
      } else {
        clean = done == pid_ && WIFEXITED(status) && WEXITSTATUS(status) == 0;
      }
      pid_ = -1;
    }
    if (!dir_.empty()) {
      std::error_code ignored;
      std::filesystem::remove_all(dir_, ignored);
      dir_.clear();
    }
    return clean;
  }

 private:
  void wait_until_ready() {
    punt::Stopwatch waited;
    while (waited.seconds() < kDaemonStartSeconds) {
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw punt::Error("the daemon exited at start-up: " + read_file(log_));
      }
      try {
        Request ping;
        ping.op = Op::Ping;
        (void)punt::server::request_once(socket_, ping);
        return;
      } catch (const punt::Error&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
    throw punt::Error("the daemon did not answer within its start-up time");
  }

  std::string dir_;
  std::string socket_;
  std::string log_;
  pid_t pid_ = -1;
};

Request synth_request(const Input& spec, const Combo& combo, bool minimize = true) {
  Request request;
  request.op = Op::Synth;
  request.g_text = spec.text;
  request.method = combo.method_name;
  request.arch = combo.arch_name;
  request.minimize = minimize;
  return request;
}

Request lint_request(const Input& spec) {
  Request request;
  request.op = Op::Lint;
  request.lint_files = {{spec.name + ".g", spec.text}};
  request.lint_deep = true;
  return request;
}

/// Drops the lines that legitimately differ between two servings of one
/// request: the synth timing line and the per-request cache summary.
std::string without_lines(const std::string& text, std::string_view prefix) {
  std::string out;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    end = end == std::string::npos ? text.size() : end + 1;
    const std::string_view line(text.data() + start, end - start);
    if (line.substr(0, prefix.size()) != prefix) out.append(line);
    start = end;
  }
  return out;
}

/// The bytes a served response must reproduce.
struct Expected {
  int exit_code = 0;
  std::string output;
  std::string log;
  Response raw;            // for the codec timing of the traced run
  double service_ms = 0;   // in-process service time, warm cache
};

Expected expect(Response response, double service_ms) {
  Expected expected;
  expected.exit_code = response.exit_code;
  expected.output = without_lines(response.output, "# unfold ");
  expected.log = without_lines(response.log, "model cache: ");
  expected.raw = std::move(response);
  expected.service_ms = service_ms;
  return expected;
}

bool matches(const Expected& expected, const Response& response) {
  return response.ok && response.exit_code == expected.exit_code &&
         without_lines(response.output, "# unfold ") == expected.output &&
         without_lines(response.log, "model cache: ") == expected.log;
}

/// Literal count from a synth response's header line.
std::size_t literals_of(const Response& response) {
  const std::size_t comma = response.output.find(" signals, ");
  return comma == std::string::npos
             ? 0
             : std::strtoull(response.output.c_str() + comma + 10, nullptr, 10);
}

/// Every request of the mix, by (spec, combo) and by spec.
struct Mix {
  std::vector<Input> specs;
  std::vector<std::vector<Request>> synth;  // [spec][combo]
  std::vector<Request> lint;                // [spec]
};

/// The in-process answers, by the same indices as Mix.
struct References {
  std::vector<std::vector<Expected>> synth;
  std::vector<Expected> lint;
};

/// The warm-up pass: builds every model the mix uses (the unfolding and
/// state-graph models of synthesis, the deep-lint state graph) without
/// running espresso.
void warm_up(Client& client, const Mix& mix) {
  const Combo& approx = all_combos().front();
  const Combo& sg = all_combos().back();
  for (std::size_t s = 0; s < mix.specs.size(); ++s) {
    for (const Request& request : {synth_request(mix.specs[s], approx, false),
                                   synth_request(mix.specs[s], sg, false), mix.lint[s]}) {
      const Response response = client.request(request);
      if (response.exit_code != 0) {
        throw punt::Error("warm-up: " + mix.specs[s].name + " failed: " + response.log);
      }
    }
  }
}

/// Counters of one {"op":"cache-stats"} reply.
struct DaemonStats {
  double hits = 0, misses = 0, builds = 0;
  double batches = 0, fused_requests = 0, queue_high_water = 0, shed = 0;
};

/// Reads the counters on a connection of its own, closed before returning,
/// so no idle connection stays open beside the clients'.
DaemonStats daemon_stats(const std::string& socket) {
  Request request;
  request.op = Op::CacheStats;
  const punt::util::JsonValue root =
      punt::util::parse_json(punt::server::request_once(socket, request).output);
  const auto number = [&root](const char* key) {
    const punt::util::JsonValue* value = root.find(key);
    if (value == nullptr || value->type != punt::util::JsonValue::Type::Number) {
      throw punt::Error(std::string("cache-stats lacks ") + key);
    }
    return value->number;
  };
  DaemonStats stats;
  stats.hits = number("hits");
  stats.misses = number("misses");
  stats.builds = number("builds");
  stats.batches = number("batches");
  stats.fused_requests = number("fused_requests");
  stats.queue_high_water = number("queue_high_water");
  stats.shed = number("shed_queue_full") + number("shed_connection_cap");
  return stats;
}

/// One client thread's record of the timed phase.
struct ClientLog {
  std::vector<double> synth_ms;  // round trips of synth requests
  std::vector<double> lint_ms;   // round trips of lint requests
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t literals = 0;  // over the first round's synth responses
  std::vector<std::string> problems;
};

/// One round of one client: one pass over the specs per combo, each a
/// synth request per spec (rotating method × arch, so that the round
/// covers every spec × combo once) followed by a deep lint of the spec.
void client_round(const std::string& socket, std::unique_ptr<Client>& client,
                  const Mix& mix, const References& refs, std::size_t spec_offset,
                  std::size_t combo_offset, bool first_round, ClientLog& log) {
  const std::size_t specs = mix.specs.size();
  const std::size_t combos = all_combos().size();
  for (std::size_t pass = 0; pass < combos; ++pass) {
    for (std::size_t j = 0; j < specs; ++j) {
      const std::size_t s = (j + spec_offset) % specs;
      const std::size_t c = (s + pass + combo_offset) % combos;
      for (const bool synth : {true, false}) {
        const Request& request = synth ? mix.synth[s][c] : mix.lint[s];
        const Expected& expected = synth ? refs.synth[s][c] : refs.lint[s];
        ++log.attempted;
        try {
          if (client == nullptr) client = std::make_unique<Client>(socket);
          punt::Stopwatch round_trip;
          const Response response = client->request(request);
          (synth ? log.synth_ms : log.lint_ms).push_back(round_trip.millis());
          if (response.exit_code != 0) ++log.failed;
          if (!matches(expected, response) && log.problems.size() < kProblemsPerClient) {
            log.problems.push_back(mix.specs[s].name + (synth ? " synth " : " lint ") +
                                   (synth ? all_combos()[c].method_name : "") +
                                   ": response differs from the in-process service call");
          }
          if (synth && first_round) log.literals += literals_of(response);
        } catch (const punt::Error& e) {
          // Shed ("overloaded") or a transport fault: the daemon closes the
          // connection after a refusal, so reconnect on the next request.
          ++log.failed;
          client.reset();
          if (log.problems.size() < kProblemsPerClient) {
            log.problems.push_back(std::string("request failed: ") + e.what());
          }
        }
      }
    }
  }
}

/// Every distinct request of the mix once, through the daemon's layers one
/// public call at a time, in process and on the warm cache: what the traced
/// run times per layer.
void decomposed_pass(const Mix& mix, const References& refs, punt::core::ModelCache& cache,
                     Tracer* tracer, Layers* layers, Outcome& out) {
  punt::lint::LintOptions deep;
  deep.deep = true;
  deep.cache = &cache;
  for (std::size_t s = 0; s < mix.specs.size(); ++s) {
    for (std::size_t c = 0; c < all_combos().size(); ++c) {
      Tracer::Scope op(tracer, "op");
      Request decoded;
      {
        Tracer::Scope span(tracer, "server.codec");
        decoded = punt::server::request_from_json(punt::server::to_json(mix.synth[s][c]));
      }
      {
        Tracer::Scope span(tracer, "lint.admission");
        if (!punt::lint::lint_errors(decoded.g_text).empty()) {
          out.fail(mix.specs[s].name + ": decomposed pass: refused by admission");
        }
      }
      Prepared input{mix.specs[s].name, decoded.g_text, {}, 0, 0};
      {
        Tracer::Scope span(tracer, "stg.parse");
        input.stg = punt::stg::parse_g(decoded.g_text);
      }
      const Circuit circuit = synthesize(input, all_combos()[c], cache, tracer);
      if (!circuit.ok) out.fail(mix.specs[s].name + ": decomposed pass: " + circuit.error);
      if (layers != nullptr) count_work(circuit, *layers);
      {
        Tracer::Scope span(tracer, "server.codec");
        (void)punt::server::response_from_json(punt::server::to_json(refs.synth[s][c].raw));
      }
    }
    Tracer::Scope op(tracer, "op");
    Request decoded;
    {
      Tracer::Scope span(tracer, "server.codec");
      decoded = punt::server::request_from_json(punt::server::to_json(mix.lint[s]));
    }
    {
      Tracer::Scope span(tracer, "lint.deep");
      const auto lint = punt::lint::lint_text(decoded.lint_files.front().text,
                                              decoded.lint_files.front().name, deep);
      if (!lint.ok()) out.fail(mix.specs[s].name + ": decomposed pass: lint errors");
    }
    {
      Tracer::Scope span(tracer, "server.codec");
      (void)punt::server::response_from_json(punt::server::to_json(refs.lint[s].raw));
    }
  }
}

}  // namespace

Outcome run_serve(const Args& args) {
  Outcome out;
  const std::size_t workers = std::min<std::size_t>(4, usable_cpus());
  const std::size_t clients = std::min<std::size_t>(3, usable_cpus());

  Mix mix;
  mix.specs = registry_inputs();
  for (const Input& spec : mix.specs) {
    mix.synth.emplace_back();
    for (const Combo& combo : all_combos()) mix.synth.back().push_back(synth_request(spec, combo));
    mix.lint.push_back(lint_request(spec));
  }

  // In-process references: server::run_synth / run_lint on the same
  // requests over a warm cache and an executor as wide as the daemon's
  // (its threads end before the timed phase starts the clients).
  Tracer tracer;
  punt::core::ModelCache cache;
  const std::vector<Prepared> prepared =
      set_up(mix.specs, all_combos(), cache, args.trace ? &tracer : nullptr);
  const std::map<std::string, double> setup_ms = tracer.self_ms();
  References refs;
  auto executor = std::make_unique<punt::core::Executor>(workers);
  for (std::size_t s = 0; s < mix.specs.size(); ++s) {
    (void)punt::server::run_lint(mix.lint[s], cache, executor.get());  // builds its model
    punt::Stopwatch watch;
    Response response = punt::server::run_lint(mix.lint[s], cache, executor.get());
    const double ms = watch.millis();
    refs.lint.push_back(expect(std::move(response), ms));
    if (refs.lint.back().exit_code != 0) out.fail(mix.specs[s].name + ": lint refuses the spec");
    refs.synth.emplace_back();
    for (std::size_t c = 0; c < all_combos().size(); ++c) {
      watch.restart();
      response = punt::server::run_synth(mix.synth[s][c], &cache, executor.get());
      const double synth_ms = watch.millis();
      refs.synth.back().push_back(expect(std::move(response), synth_ms));
      if (refs.synth.back().back().exit_code != 0) {
        out.fail(mix.specs[s].name + ": in-process synthesis fails");
      }
    }
  }

  executor.reset();

  // Set-up: daemon start through the end of one warm-up pass, repeated;
  // the last daemon serves the timed phase.
  std::vector<double> setup_seconds;
  std::unique_ptr<Daemon> daemon;
  for (std::size_t r = 0; r < kServeSetupRepeats; ++r) {
    if (daemon != nullptr && !daemon->stop()) out.fail("the daemon did not exit cleanly");
    punt::Stopwatch watch;
    daemon = std::make_unique<Daemon>(workers);
    Client control(daemon->socket());
    warm_up(control, mix);
    setup_seconds.push_back(watch.seconds());
  }

  // Timed phase: whole rounds from every client until the run has lasted
  // args.seconds and carried kMinSynthRequests synth requests.
  const DaemonStats before = daemon_stats(daemon->socket());
  const double cpu_before = daemon->cpu_seconds();
  std::vector<std::unique_ptr<Client>> connections(clients);
  for (auto& connection : connections) connection = std::make_unique<Client>(daemon->socket());
  std::vector<ClientLog> logs(clients);
  // The seed picks where the clients start; they start evenly spaced from
  // there, so how their requests line up (which sets the queueing) does not
  // depend on the seed.
  std::vector<std::size_t> spec_offsets, combo_offsets;
  punt::XorShift random(args.seed * 0x9E3779B97F4A7C15ull + 7);
  const std::size_t spec_start = random.below(mix.specs.size());
  const std::size_t combo_start = random.below(all_combos().size());
  for (std::size_t k = 0; k < clients; ++k) {
    spec_offsets.push_back((spec_start + k * mix.specs.size() / clients) % mix.specs.size());
    combo_offsets.push_back((combo_start + k * all_combos().size() / clients) %
                            all_combos().size());
  }
  std::size_t rounds = 0;
  std::size_t requests = 0;
  std::size_t synth_requests = 0;
  punt::Stopwatch timed;
  do {
    std::vector<std::thread> threads;
    for (std::size_t k = 0; k < clients; ++k) {
      threads.emplace_back(client_round, std::cref(daemon->socket()), std::ref(connections[k]),
                           std::cref(mix), std::cref(refs), spec_offsets[k], combo_offsets[k],
                           rounds == 0, std::ref(logs[k]));
    }
    for (std::thread& thread : threads) thread.join();
    ++rounds;
    requests = 0;
    synth_requests = 0;
    for (const ClientLog& log : logs) {
      requests += log.attempted;
      synth_requests += log.synth_ms.size();
    }
  } while (timed.seconds() < args.seconds || synth_requests < kMinSynthRequests);
  const double wall_seconds = timed.seconds();
  const double cpu_seconds = daemon->cpu_seconds() - cpu_before;
  const double peak_rss_mb = daemon->peak_rss_mb();
  const DaemonStats after = daemon_stats(daemon->socket());
  connections.clear();
  if (!daemon->stop()) out.fail("the daemon did not exit cleanly");

  std::vector<double> synth_ms;
  std::vector<double> lint_ms;
  std::size_t literals = 0;
  for (const ClientLog& log : logs) {
    out.attempted += log.attempted;
    out.failed += log.failed;
    for (const std::string& problem : log.problems) out.fail(problem);
    synth_ms.insert(synth_ms.end(), log.synth_ms.begin(), log.synth_ms.end());
    lint_ms.insert(lint_ms.end(), log.lint_ms.begin(), log.lint_ms.end());
  }
  literals = logs.front().literals;
  const double shed = after.shed - before.shed;
  if (shed > 0) std::fprintf(stderr, "serve: the daemon shed %.0f request(s)\n", shed);

  if (!args.trace) {
    out.add("setup_s", median(setup_seconds), "s");
    out.add("throughput_per_s", static_cast<double>(requests) / wall_seconds, "1/s");
    out.add("latency_p50_ms", percentile(synth_ms, 50), "ms");
    out.add("latency_p99_ms", percentile(synth_ms, 99), "ms");
    out.add("cpu_ms_per_op", 1e3 * cpu_seconds / static_cast<double>(requests), "ms");
    out.add("literals", static_cast<double>(literals), "count");
    out.add("peak_rss_mb", peak_rss_mb, "MiB");
  } else {
    Layers layers;
    // Each round synthesises every spec × combo once per client, so the
    // in-process times of the distinct synth requests are the wire mix.
    std::vector<double> service;
    for (std::size_t s = 0; s < mix.specs.size(); ++s) {
      for (const Expected& expected : refs.synth[s]) service.push_back(expected.service_ms);
    }
    layers.service_ms = median(service);
    layers.overhead_ms = percentile(synth_ms, 50) - layers.service_ms;
    layers.batches = after.batches - before.batches;
    layers.fused_mean =
        layers.batches > 0 ? (after.fused_requests - before.fused_requests) / layers.batches : 0;
    layers.queue_high_water = after.queue_high_water;
    layers.shed = shed;
    layers.cache_hits = after.hits - before.hits;
    layers.cache_builds = after.builds - before.builds;
    const double lookups = layers.cache_hits + after.misses - before.misses;
    layers.cache_hit_ratio = lookups > 0 ? layers.cache_hits / lookups : 0;
    for (const Prepared& p : prepared) {
      layers.unfolding_events += static_cast<double>(p.unfolding_events);
      layers.sg_states += static_cast<double>(p.sg_states);
    }

    // The decomposed pass, untraced and then traced: the tracing overhead
    // is the difference of the two walls.
    punt::Stopwatch untraced;
    decomposed_pass(mix, refs, cache, nullptr, nullptr, out);
    const double untraced_ms = untraced.millis();
    const long root = static_cast<long>(tracer.spans().size());
    {
      Tracer::Scope pass(&tracer, "pass");
      decomposed_pass(mix, refs, cache, &tracer, &layers, out);
    }
    // The pass resolves models from the warm cache; their builds are timed
    // in the set-up.
    layers.self_ms = tracer.self_ms(root);
    for (const char* build : {"unfolding.build", "sg.build"}) {
      const auto found = setup_ms.find(build);
      layers.self_ms[build] = found == setup_ms.end() ? 0.0 : found->second;
    }
    account_pass(tracer, root, {"pass", "op"}, layers, out);
    layers.trace_overhead_ms = layers.pass_wall_ms - untraced_ms;
    const double requests_per_pass =
        static_cast<double>(mix.specs.size() * (all_combos().size() + 1));
    layers.codec_us = 1e3 * layers.self("server.codec") / requests_per_pass;
    const std::string path = ".bench_build/trace-serve-" + std::to_string(args.seed) + ".json";
    if (tracer.write_json(path)) std::fprintf(stderr, "spans written to %s\n", path.c_str());
    add_layer_metrics(out, layers);
  }
  std::fprintf(stderr,
               "serve: %zu client(s) x %zu round(s), %zu worker(s), %zu attempted, "
               "%zu failed, %.2f s; synth p50 %.2f ms p99 %.2f ms (n=%zu), "
               "lint p50 %.2f ms p99 %.2f ms (n=%zu)\n",
               clients, rounds, workers, out.attempted, out.failed, wall_seconds,
               percentile(synth_ms, 50), percentile(synth_ms, 99), synth_ms.size(),
               percentile(lint_ms, 50), percentile(lint_ms, 99), lint_ms.size());
  return out;
}

}  // namespace puntbench
