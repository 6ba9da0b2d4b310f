// Simulator scaling bench: times datagen::Simulator::Run on the bench
// suite's standard economy at four chain lengths and prints, per
// length, the CRC32 of the exported ledger CSV, so two builds that must
// simulate the same chain can be compared byte for byte. Writes
// BENCH_simulator.json.
//
//   ./build/bench/bench_simulator [--blocks 8000] [--repeats 3] [--seed 42]
//       [--out BENCH_simulator.json]
//
// The lengths are --blocks/8, /4, /2 and --blocks itself. Each length
// is simulated `--repeats` times from scratch; the JSON reports the
// median Run() seconds with min and max, the transaction and address
// counts, and the ledger CRC (identical across repeats, or the bench
// exits non-zero). `scaling` is each length's median over the previous
// length's: 2 is linear in the chain, 4 quadratic.

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "chain/io.h"
#include "util/fs.h"

namespace {

/// CRC32 of the ledger's CSV export, the format's own byte image.
uint32_t LedgerCrc(const ba::chain::Ledger& ledger) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("ba_bench_simulator_" + std::to_string(::getpid()) + ".csv"))
          .string();
  BA_CHECK_OK(ba::chain::ExportLedgerCsv(ledger, path));
  auto bytes = ba::util::ReadFileToString(path);
  std::remove(path.c_str());
  BA_CHECK_OK(bytes.status());
  return ba::util::Crc32(bytes.value());
}

struct SizeResult {
  int blocks = 0;
  ba::bench::Spread run_s;
  uint64_t transactions = 0;
  size_t addresses = 0;
  uint32_t crc = 0;
};

}  // namespace

int main(int argc, char** argv) {
  ba::CliFlags flags(argc, argv);
  const int threads = ba::bench::ThreadsFlag(flags);
  ba::datagen::ScenarioConfig config =
      ba::bench::ScenarioFromFlags(flags, threads);
  const int max_blocks = static_cast<int>(flags.GetInt("blocks", 8000));
  const int repeats = static_cast<int>(flags.GetInt("repeats", 3));
  const std::string out = flags.GetString("out", "BENCH_simulator.json");
  BA_CHECK_GE(max_blocks, 8);
  BA_CHECK_GE(repeats, 1);

  std::vector<SizeResult> results;
  bool crc_stable = true;
  for (int blocks = max_blocks / 8; blocks <= max_blocks; blocks *= 2) {
    config.num_blocks = blocks;
    SizeResult r;
    r.blocks = blocks;
    std::vector<double> seconds;
    for (int rep = 0; rep < repeats; ++rep) {
      ba::datagen::Simulator sim(config);
      ba::Stopwatch watch;
      watch.Start();
      BA_CHECK_OK(sim.Run());
      seconds.push_back(watch.ElapsedSeconds());
      const uint32_t crc = LedgerCrc(sim.ledger());
      if (rep == 0) {
        r.crc = crc;
        r.transactions = sim.ledger().num_transactions();
        r.addresses = sim.ledger().num_addresses();
      } else if (crc != r.crc) {
        crc_stable = false;
      }
    }
    r.run_s = ba::bench::SpreadOf(seconds);
    std::cout << "blocks " << blocks << ": run_s " << std::fixed
              << std::setprecision(3) << r.run_s.median << " (min "
              << r.run_s.min << ", max " << r.run_s.max << "), "
              << r.transactions << " txs, " << r.addresses
              << " addresses, ledger crc32 " << std::hex << std::setw(8)
              << std::setfill('0') << r.crc << std::dec << std::setfill(' ')
              << "\n";
    results.push_back(r);
  }

  std::ostringstream json;
  json << "{\"crc_stable\":" << (crc_stable ? "true" : "false")
       << ",\"repeats\":" << repeats << ",\"results\":[";
  for (size_t i = 0; i < results.size(); ++i) {
    const SizeResult& r = results[i];
    char crc[9];
    std::snprintf(crc, sizeof(crc), "%08x", r.crc);
    json << (i ? "," : "") << "{\"blocks\":" << r.blocks << ","
         << ba::bench::SpreadJson("run_s", r.run_s)
         << ",\"transactions\":" << r.transactions
         << ",\"addresses\":" << r.addresses << ",\"ledger_crc32\":\"" << crc
         << "\",\"scaling\":";
    if (i == 0) {
      json << "null";
    } else {
      json << r.run_s.median / results[i - 1].run_s.median;
    }
    json << "}";
  }
  json << "],\"meta\":" << ba::bench::BenchMetaJson("simulator", threads)
       << "}";
  std::ofstream(out) << json.str() << "\n";
  std::cout << "wrote " << out << "\n";
  if (!crc_stable) {
    std::cerr << "ledger CRC differs across repeats of one size\n";
    return 1;
  }
  return 0;
}
