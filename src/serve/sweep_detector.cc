#include "serve/sweep_detector.h"

#include <algorithm>

namespace ba::serve {

SweepDetector::SweepDetector(int threshold) : threshold_(threshold) {}

CacheMode SweepDetector::ModeFor(uint64_t client_id) const {
  if (threshold_ < 1 || client_id == 0) return CacheMode::kNormal;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = clients_.find(client_id);
  return it != clients_.end() && it->second.sweeping
             ? CacheMode::kNoPromote
             : CacheMode::kNormal;
}

void SweepDetector::Observe(uint64_t client_id, bool reused_cache) {
  if (threshold_ < 1 || client_id == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = clients_.find(client_id);
  if (it == clients_.end()) {
    if (clients_.size() >= kMaxClients) return;
    it = clients_.emplace(client_id, ClientState{}).first;
  }
  ClientState& c = it->second;
  if (reused_cache) {
    c.streak = 0;
    // Unmarking is sticky: a scanner that wraps back over the handful
    // of entries it cached before being caught produces a short hit
    // run, and unmarking on the first hit would let it alternate
    // between marked and unmarked forever — inserting (and evicting
    // the hot set) on every wrap. A genuine working-set client hits
    // continuously and clears the mark within kUnmarkHitRun requests.
    if (c.sweeping && ++c.hit_streak >= kUnmarkHitRun) {
      c.sweeping = false;
      c.hit_streak = 0;
    }
    return;
  }
  c.hit_streak = 0;
  // A repeat offender re-marks on a much shorter streak: the first
  // detection paid the full threshold of cold insertions, there is no
  // reason to sell that many hot entries again.
  const int effective = c.ever_swept
                            ? std::max(2, threshold_ / 4)
                            : threshold_;
  if (++c.streak >= effective) {
    c.sweeping = true;
    c.ever_swept = true;
  }
}

void SweepDetector::Forget(uint64_t client_id) {
  if (client_id == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  clients_.erase(client_id);
}

uint64_t SweepDetector::sweeping_clients() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = 0;
  for (const auto& [id, c] : clients_) n += c.sweeping ? 1 : 0;
  return n;
}

}  // namespace ba::serve
