#include "chain/io.h"

#include <sstream>
#include <string>
#include <vector>

#include "util/fs.h"

namespace ba::chain {

namespace {

constexpr char kHeader[] = "# ba-ledger v2,";

std::string JoinOutputs(const std::vector<TxOut>& outs) {
  std::ostringstream os;
  for (size_t i = 0; i < outs.size(); ++i) {
    if (i) os << "|";
    os << outs[i].address << ":" << outs[i].value;
  }
  return os.str();
}

std::string JoinInputs(const std::vector<TxIn>& ins) {
  std::ostringstream os;
  for (size_t i = 0; i < ins.size(); ++i) {
    if (i) os << "|";
    os << ins[i].prevout.txid << ":" << ins[i].prevout.index;
  }
  return os.str();
}

/// Splits "a:b|c:d" into (a, b) pairs; returns false on malformed text.
bool ParsePairs(const std::string& text,
                std::vector<std::pair<uint64_t, int64_t>>* out) {
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, '|')) {
    const auto colon = item.find(':');
    if (colon == std::string::npos) return false;
    try {
      out->push_back({std::stoull(item.substr(0, colon)),
                      std::stoll(item.substr(colon + 1))});
    } catch (const std::exception&) {
      return false;
    }
  }
  return !out->empty();
}

}  // namespace

Status ExportLedgerCsv(const Ledger& ledger, const std::string& path) {
  util::AtomicFileWriter out(path);
  BA_RETURN_NOT_OK(out.Open());
  {
    std::ostringstream header;
    header << kHeader << ledger.options().block_subsidy << ","
           << ledger.num_addresses() << "\n";
    BA_RETURN_NOT_OK(out.Append(header.str()));
  }
  for (uint64_t h = 0; h < ledger.height(); ++h) {
    const Block& block = ledger.block(h);
    std::ostringstream os;
    os << "B," << block.height << "," << block.timestamp << "\n";
    for (TxId id : block.transactions) {
      const Transaction& tx = ledger.tx(id);
      if (tx.coinbase) {
        os << "C," << tx.timestamp << "," << JoinOutputs(tx.outputs) << "\n";
      } else {
        os << "T," << tx.timestamp << "," << JoinInputs(tx.inputs) << ","
           << JoinOutputs(tx.outputs) << "\n";
      }
    }
    BA_RETURN_NOT_OK(out.Append(os.str()));
  }
  BA_RETURN_NOT_OK(util::AppendCrcTrailerLine(&out));
  return out.Commit();
}

Result<Ledger> ImportLedgerCsv(const std::string& path) {
  util::SealedLineReader in;
  BA_RETURN_NOT_OK(in.Open(path));
  auto fail = [&in](const std::string& why) { return in.LineError(why); };

  std::string header;
  if (!in.Next(&header)) {
    return Status::InvalidArgument("line 1: empty file (missing header): " +
                                   path);
  }
  if (header.rfind(kHeader, 0) != 0) {
    return fail("missing ba-ledger header (expected '" +
                std::string(kHeader) + "', got '" + header.substr(0, 40) +
                "')");
  }
  Amount subsidy = 0;
  size_t num_addresses = 0;
  {
    std::stringstream ss(header.substr(sizeof(kHeader) - 1));
    std::string field;
    try {
      if (!std::getline(ss, field, ',')) throw std::invalid_argument("");
      subsidy = std::stoll(field);
      if (!std::getline(ss, field, ',')) throw std::invalid_argument("");
      num_addresses = std::stoull(field);
    } catch (const std::exception&) {
      return fail("malformed header: " + header);
    }
  }
  // Validate header values before acting on them: a corrupted subsidy
  // or address count must fail here, not abort in the Ledger ctor or
  // drive an enormous allocation.
  if (subsidy <= 0) {
    return fail("invalid block subsidy " + std::to_string(subsidy));
  }
  constexpr size_t kMaxAddresses = size_t{1} << 26;  // ~67M, corpus is ~2M
  if (num_addresses > kMaxAddresses) {
    return fail("implausible address count " + std::to_string(num_addresses));
  }

  LedgerOptions options;
  options.block_subsidy = subsidy;
  Ledger ledger(options);
  for (size_t i = 0; i < num_addresses; ++i) ledger.NewAddress();

  std::string line;
  Timestamp block_time = 0;
  bool in_block = false;
  auto seal_block = [&]() -> Status {
    const Status sealed = ledger.SealBlock(block_time);
    return sealed.ok() ? sealed : fail(sealed.message());
  };
  while (in.Next(&line)) {
    if (line.empty()) continue;
    std::stringstream ss(line);
    std::string kind;
    if (!std::getline(ss, kind, ',')) return fail("empty record");
    if (kind == "B") {
      if (in_block) BA_RETURN_NOT_OK(seal_block());
      std::string height_s, ts_s;
      if (!std::getline(ss, height_s, ',') || !std::getline(ss, ts_s, ',')) {
        return fail("malformed block record");
      }
      try {
        block_time = std::stoll(ts_s);
      } catch (const std::exception&) {
        return fail("bad block timestamp");
      }
      in_block = true;
    } else if (kind == "C") {
      std::string ts_s, outs_s;
      if (!std::getline(ss, ts_s, ',') || !std::getline(ss, outs_s)) {
        return fail("malformed coinbase record");
      }
      std::vector<std::pair<uint64_t, int64_t>> outs;
      if (!ParsePairs(outs_s, &outs)) return fail("bad coinbase outputs");
      std::vector<AddressId> addresses;
      std::vector<double> weights;
      for (const auto& [addr, value] : outs) {
        addresses.push_back(static_cast<AddressId>(addr));
        weights.push_back(static_cast<double>(value));
      }
      Timestamp ts = 0;
      try {
        ts = std::stoll(ts_s);
      } catch (const std::exception&) {
        return fail("bad coinbase timestamp");
      }
      auto result = ledger.ApplyCoinbase(ts, addresses, weights);
      if (!result.ok()) return fail(result.status().message());
    } else if (kind == "T") {
      std::string ts_s, ins_s, outs_s;
      if (!std::getline(ss, ts_s, ',') || !std::getline(ss, ins_s, ',') ||
          !std::getline(ss, outs_s)) {
        return fail("malformed transaction record");
      }
      std::vector<std::pair<uint64_t, int64_t>> ins, outs;
      if (!ParsePairs(ins_s, &ins)) return fail("bad inputs");
      if (!ParsePairs(outs_s, &outs)) return fail("bad outputs");
      TxDraft draft;
      try {
        draft.timestamp = std::stoll(ts_s);
      } catch (const std::exception&) {
        return fail("bad transaction timestamp");
      }
      for (const auto& [txid, index] : ins) {
        draft.inputs.push_back(
            OutPoint{txid, static_cast<uint32_t>(index)});
      }
      for (const auto& [addr, value] : outs) {
        draft.outputs.push_back({static_cast<AddressId>(addr), value});
      }
      auto result = ledger.ApplyTransaction(draft);
      if (!result.ok()) return fail(result.status().message());
    } else if (kind[0] == '#') {
      continue;  // comment
    } else {
      return fail("unknown record kind: " + kind);
    }
  }
  BA_RETURN_NOT_OK(in.Finish());
  if (in_block) BA_RETURN_NOT_OK(seal_block());
  const Status conserved = ledger.CheckConservation();
  if (!conserved.ok()) return fail(conserved.message());
  return ledger;
}

}  // namespace ba::chain
