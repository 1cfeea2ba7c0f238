// `perfbench_tool load`: the closed-loop tenants of service_tenants. Each
// tenant is one thread with one ServiceClient connection that submits its
// samples one after another, waiting for every reply. A round is every
// tenant's list once; tenants meet at a barrier between rounds, and
// rounds repeat until --seconds have passed. Per round the daemon's CPU
// time is read from /proc/<pid>/stat.

#include <unistd.h>

#include <atomic>
#include <barrier>
#include <mutex>
#include <thread>

#include "common.h"
#include "service/rpc.h"

using namespace staratlas;

namespace perfbench {
namespace {

// utime + stime of a process, in seconds.
double process_cpu_seconds(const std::string& pid) {
  const std::string stat = read_file("/proc/" + pid + "/stat");
  std::istringstream fields(stat.substr(stat.rfind(')') + 2));
  std::string field;
  double ticks = 0.0;
  // Fields after the command name start at the state (field 3); utime
  // and stime are fields 14 and 15.
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i >= 14) ticks += std::stod(field);
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

struct Item {
  std::string name;
  std::string fastq;
};

std::string json_list(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.6g", i ? ", " : "", values[i]);
    out += buf;
  }
  return out + "]";
}

}  // namespace

int cmd_load(const std::map<std::string, std::string>& args) {
  const std::string socket = args.at("socket");
  const std::string pid = args.at("daemon-pid");
  const double seconds = std::stod(args.at("seconds"));
  const std::string replies = args.at("replies");

  std::vector<std::string> tenants;
  std::map<std::string, std::vector<Item>> items;
  std::string probe;
  for (const PlanLine& line : read_plan(args.at("plan"))) {
    if (line.kind == "probe") probe = read_file(line.fields.at(0));
    if (line.kind != "tenant") continue;
    const std::string& tenant = line.fields.at(0);
    if (!items.count(tenant)) tenants.push_back(tenant);
    items[tenant].push_back({line.fields.at(1), read_file(line.fields.at(2))});
  }

  std::atomic<u64> submitted{0};
  std::atomic<u64> rejected{0};
  std::atomic<u64> mismatched{0};

  // Idle-daemon round trip of the probe sample (service.rpc_ms).
  std::vector<double> probe_ms;
  const int probe_runs = std::stoi(args.at("probe-runs"));
  if (probe_runs > 0) {
    ServiceClient client(socket);
    for (int i = 0; i < probe_runs; ++i) {
      const auto start = Clock::now();
      const auto response = client.submit("probe", "probe", probe);
      probe_ms.push_back(1e3 * seconds_since(start));
      ++submitted;
      if (!response.ok) ++rejected;
    }
  }

  std::vector<double> round_wall;
  std::vector<double> round_cpu;
  std::vector<double> light_ms;
  std::vector<double> heavy_ms;
  std::mutex mu;  // guards the latency vectors
  bool stop = false;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  auto round_start = Clock::now();
  double cpu_start = process_cpu_seconds(pid);
  auto end_round = [&]() noexcept {
    round_wall.push_back(seconds_since(round_start));
    try {
      const double cpu = process_cpu_seconds(pid);
      round_cpu.push_back(cpu - cpu_start);
      cpu_start = cpu;
    } catch (...) {
      stop = true;
    }
    stop = stop || Clock::now() >= deadline;
    round_start = Clock::now();
  };
  std::barrier sync(static_cast<std::ptrdiff_t>(tenants.size()), end_round);

  std::vector<std::string> errors(tenants.size());
  std::vector<std::map<std::string, std::string>> bodies(tenants.size());
  std::vector<std::thread> threads;
  for (size_t t = 0; !tenants.empty() && t < tenants.size(); ++t) {
    threads.emplace_back([&, t] {
      const std::string& tenant = tenants[t];
      const bool light = tenant.rfind("light", 0) == 0;
      try {
        ServiceClient client(socket);
        while (true) {
          for (const Item& item : items[tenant]) {
            const auto start = Clock::now();
            const auto response = client.submit(tenant, item.name, item.fastq);
            const double ms = 1e3 * seconds_since(start);
            ++submitted;
            if (!response.ok) {
              ++rejected;
              continue;
            }
            {
              std::lock_guard lock(mu);
              (light ? light_ms : heavy_ms).push_back(ms);
            }
            auto [it, first] = bodies[t].try_emplace(item.name, response.body);
            if (!first && it->second != response.body) ++mismatched;
          }
          sync.arrive_and_wait();
          if (stop) break;
        }
      } catch (const std::exception& e) {
        errors[t] = e.what();
        sync.arrive_and_drop();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const std::string& error : errors) {
    if (!error.empty()) throw std::runtime_error(error);
  }

  for (size_t t = 0; t < tenants.size(); ++t) {
    for (const auto& [name, body] : bodies[t]) {
      std::ofstream out(replies + "/" + name + ".reply");
      out << body;
    }
  }
  std::ofstream out(args.at("out"));
  out << "{\"round_wall_s\": " << json_list(round_wall)
      << ",\n \"round_cpu_s\": " << json_list(round_cpu)
      << ",\n \"light_ms\": " << json_list(light_ms)
      << ",\n \"heavy_ms\": " << json_list(heavy_ms)
      << ",\n \"probe_ms\": " << json_list(probe_ms)
      << ",\n \"submitted\": " << submitted << ", \"rejected\": " << rejected
      << ", \"mismatched\": " << mismatched << "}\n";
  if (!out) throw std::runtime_error("cannot write load results");
  return 0;
}

}  // namespace perfbench
