#include "datagen/dataset.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <unordered_set>

#include "util/fs.h"
#include "util/logging.h"

namespace ba::datagen {

std::array<int64_t, kNumBehaviors> CountByLabel(
    const std::vector<LabeledAddress>& addresses) {
  std::array<int64_t, kNumBehaviors> counts{};
  for (const auto& a : addresses) {
    ++counts[static_cast<size_t>(a.label)];
  }
  return counts;
}

namespace {

std::array<std::vector<LabeledAddress>, kNumBehaviors> GroupByLabel(
    const std::vector<LabeledAddress>& addresses) {
  std::array<std::vector<LabeledAddress>, kNumBehaviors> groups;
  for (const auto& a : addresses) {
    groups[static_cast<size_t>(a.label)].push_back(a);
  }
  return groups;
}

}  // namespace

std::vector<LabeledAddress> StratifiedSample(
    const std::vector<LabeledAddress>& addresses, int64_t target_total,
    Rng* rng) {
  BA_CHECK_GE(target_total, 0);
  auto groups = GroupByLabel(addresses);
  const int64_t total = static_cast<int64_t>(addresses.size());
  if (total <= target_total) return addresses;

  std::vector<LabeledAddress> out;
  out.reserve(static_cast<size_t>(target_total));
  for (auto& group : groups) {
    if (group.empty()) continue;
    int64_t take = target_total * static_cast<int64_t>(group.size()) / total;
    take = std::max<int64_t>(take, 1);
    take = std::min<int64_t>(take, static_cast<int64_t>(group.size()));
    rng->Shuffle(&group);
    out.insert(out.end(), group.begin(), group.begin() + take);
  }
  return out;
}

TrainTestSplit StratifiedSplit(const std::vector<LabeledAddress>& addresses,
                               double train_fraction, Rng* rng) {
  BA_CHECK_GT(train_fraction, 0.0);
  BA_CHECK_LT(train_fraction, 1.0);
  TrainTestSplit split;
  auto groups = GroupByLabel(addresses);
  for (auto& group : groups) {
    if (group.empty()) continue;
    rng->Shuffle(&group);
    // Ensure both sides get at least one example of a non-trivial class.
    int64_t cut = static_cast<int64_t>(
        train_fraction * static_cast<double>(group.size()));
    if (group.size() >= 2) {
      cut = std::clamp<int64_t>(cut, 1,
                                static_cast<int64_t>(group.size()) - 1);
    }
    split.train.insert(split.train.end(), group.begin(), group.begin() + cut);
    split.test.insert(split.test.end(), group.begin() + cut, group.end());
  }
  rng->Shuffle(&split.train);
  rng->Shuffle(&split.test);
  return split;
}

std::vector<ActivityPoint> ActiveAddressSeries(const chain::Ledger& ledger,
                                               int64_t bucket_seconds) {
  BA_CHECK_GT(bucket_seconds, 0);
  std::map<chain::Timestamp, std::unordered_set<chain::AddressId>> buckets;
  for (uint64_t h = 0; h < ledger.height(); ++h) {
    const chain::Block& block = ledger.block(h);
    for (chain::TxId id : block.transactions) {
      const chain::Transaction& tx = ledger.tx(id);
      const chain::Timestamp bucket =
          tx.timestamp - (tx.timestamp % bucket_seconds);
      auto& active = buckets[bucket];
      for (const auto& in : tx.inputs) active.insert(in.address);
      for (const auto& out : tx.outputs) active.insert(out.address);
    }
  }
  std::vector<ActivityPoint> series;
  series.reserve(buckets.size());
  for (const auto& [start, active] : buckets) {
    series.push_back({start, static_cast<int64_t>(active.size())});
  }
  return series;
}

}  // namespace ba::datagen

namespace ba::datagen {

constexpr char kLabelsHeader[] = "address,label";

Status ExportLabelsCsv(const std::vector<LabeledAddress>& labels,
                       const std::string& path) {
  util::AtomicFileWriter out(path);
  BA_RETURN_NOT_OK(out.Open());
  std::ostringstream body;
  body << kLabelsHeader << "\n";
  for (const auto& a : labels) {
    body << a.address << "," << BehaviorName(a.label) << "\n";
  }
  BA_RETURN_NOT_OK(out.Append(body.str()));
  BA_RETURN_NOT_OK(util::AppendCrcTrailerLine(&out));
  return out.Commit();
}

Result<std::vector<LabeledAddress>> ImportLabelsCsv(const std::string& path) {
  util::SealedLineReader in;
  BA_RETURN_NOT_OK(in.Open(path));
  std::string line;
  if (!in.Next(&line) || line != kLabelsHeader) {
    return Status::InvalidArgument("line 1: missing labels header: " + path);
  }
  const auto names = BehaviorNames();
  std::vector<LabeledAddress> out;
  while (in.Next(&line)) {
    if (line.empty()) continue;
    const auto comma = line.find(',');
    if (comma == std::string::npos) return in.LineError("missing comma");
    LabeledAddress entry;
    try {
      entry.address = static_cast<chain::AddressId>(
          std::stoul(line.substr(0, comma)));
    } catch (const std::exception&) {
      return in.LineError("bad address");
    }
    const std::string label = line.substr(comma + 1);
    bool found = false;
    for (int c = 0; c < kNumBehaviors; ++c) {
      if (names[static_cast<size_t>(c)] == label) {
        entry.label = static_cast<BehaviorLabel>(c);
        found = true;
        break;
      }
    }
    if (!found) return in.LineError("unknown label " + label);
    out.push_back(entry);
  }
  BA_RETURN_NOT_OK(in.Finish());
  return out;
}

}  // namespace ba::datagen
