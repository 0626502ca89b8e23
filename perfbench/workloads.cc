#include "workloads.h"

#include "loadgen.h"
#include "serving/feature_store.h"
#include "streaming/aggregator.h"

namespace perfbench {

std::vector<titant::serving::TransferRequest> TestDayRequests(
    const titant::datagen::World& world, const titant::txn::DatasetWindow& window) {
  std::vector<titant::serving::TransferRequest> requests;
  requests.reserve(window.test_records.size());
  for (const std::size_t idx : window.test_records) {
    const auto& rec = world.log.records[idx];
    titant::serving::TransferRequest req;
    req.txn_id = rec.txn_id;
    req.from_user = rec.from_user;
    req.to_user = rec.to_user;
    req.amount = rec.amount;
    req.day = rec.day;
    req.second_of_day = rec.second_of_day;
    req.channel = rec.channel;
    req.trans_city = rec.trans_city;
    req.is_new_device = rec.is_new_device;
    requests.push_back(req);
  }
  return requests;
}

void FillCounterCells(uint64_t frame, std::vector<titant::kvstore::Cell>* cells) {
  constexpr uint32_t kFirstUser = 10'000'000;
  constexpr uint32_t kUsers = 100'000;
  cells->resize(kCounterCellsPerFrame);
  float counters[titant::streaming::kCounterFloats] = {};
  counters[0] = static_cast<float>(frame + 1);
  const std::string value =
      titant::serving::EncodeFloats(counters, titant::streaming::kCounterFloats);
  for (int c = 0; c < kCounterCellsPerFrame; ++c) {
    const uint32_t user =
        kFirstUser + static_cast<uint32_t>((frame * kCounterCellsPerFrame + c) % kUsers);
    titant::kvstore::Cell& cell = (*cells)[static_cast<std::size_t>(c)];
    cell.key.row = titant::serving::UserRowKey(user);
    cell.key.family = titant::streaming::kFamilyRealtime;
    cell.key.qualifier = titant::streaming::kQualWindow;
    cell.key.version = frame + 1;
    cell.value = value;
    cell.tombstone = false;
  }
}

}  // namespace perfbench
