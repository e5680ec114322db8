// Output checks, run after the timed window on everything the client
// recorded.  Each check is also run once on a deliberately corrupted copy
// of the data, which it must reject: a checker that accepts a planted
// fault proves nothing.
#include <algorithm>
#include <map>
#include <string>

#include "app/directory.hpp"
#include "app/notary.hpp"
#include "service_bench.hpp"

namespace sintra::servicebench {

namespace {

/// Versions assigned per key, in no particular order.
using BindVersions = std::map<std::string, std::vector<std::uint64_t>>;

/// Every bind executed exactly once: a key bound k times carries exactly
/// the versions 1..k.
bool versions_exact(const BindVersions& binds, std::string* why) {
  for (const auto& [key, observed] : binds) {
    std::vector<std::uint64_t> versions = observed;
    std::sort(versions.begin(), versions.end());
    for (std::size_t i = 0; i < versions.size(); ++i) {
      if (versions[i] != i + 1) {
        *why = "key " + key + ": bind versions are not 1.." + std::to_string(versions.size());
        return false;
      }
    }
  }
  return true;
}

/// Notary sequence numbers are exactly 1..N over N registrations.
bool sequences_exact(std::vector<std::uint64_t> sequences, std::string* why) {
  std::sort(sequences.begin(), sequences.end());
  for (std::size_t i = 0; i < sequences.size(); ++i) {
    if (sequences[i] != i + 1) {
      *why = "notary sequence numbers are not 1.." + std::to_string(sequences.size());
      return false;
    }
  }
  return true;
}

void check_directory(const std::vector<Record>& records, CheckReport& report) {
  BindVersions binds;
  std::map<std::pair<std::string, std::uint64_t>, Bytes> bound;  // (key, version) -> value
  std::vector<std::pair<app::DirRequest, app::DirResponse>> lookups;
  for (const Record& record : records) {
    if (!record.receipt) continue;
    const app::DirRequest request = app::DirRequest::decode(record.body);
    const app::DirResponse response = app::DirResponse::decode(record.receipt->reply);
    if (response.key != request.key) {
      report.fail("reply for request " + std::to_string(record.request_id) + " names another key");
      continue;
    }
    if (request.op == app::DirRequest::Op::kBind) {
      if (response.status != app::DirResponse::Status::kOk || response.value != request.value) {
        report.fail("bind " + std::to_string(record.request_id) + " did not store its value");
        continue;
      }
      binds[request.key].push_back(response.version);
      bound[{request.key, response.version}] = request.value;
    } else {
      lookups.emplace_back(request, response);
    }
  }
  std::string why;
  if (!versions_exact(binds, &why)) report.fail(why);
  // A lookup returns some bind's value under that bind's version.
  for (const auto& [request, response] : lookups) {
    if (response.status == app::DirResponse::Status::kNotFound) continue;
    auto it = bound.find({request.key, response.version});
    if (it == bound.end() || it->second != response.value) {
      report.fail("lookup of " + request.key + " returned a value no bind stored");
      break;
    }
  }
  // Planted fault: a repeated version on one key must be rejected.
  if (!binds.empty()) {
    BindVersions planted = binds;
    auto& versions = planted.begin()->second;
    versions.push_back(versions.front());
    if (versions_exact(planted, &why)) report.fail("checker accepted a duplicated bind version");
  } else {
    report.fail("no bind receipts to check");
  }
}

void check_notary(const std::vector<Record>& records, CheckReport& report) {
  std::vector<std::uint64_t> sequences;
  for (const Record& record : records) {
    if (!record.receipt) continue;
    const app::NotaryResponse response = app::NotaryResponse::decode(record.receipt->reply);
    if (response.status != app::NotaryResponse::Status::kRegistered) {
      report.fail("document " + std::to_string(record.request_id) + " was not freshly registered");
      continue;
    }
    sequences.push_back(response.sequence);
  }
  std::string why;
  if (!sequences_exact(sequences, &why)) report.fail(why);
  if (sequences.empty()) {
    report.fail("no notary receipts to check");
  } else {
    std::vector<std::uint64_t> planted = sequences;
    planted.push_back(planted.front());
    if (sequences_exact(planted, &why)) report.fail("checker accepted a duplicated sequence number");
  }
}

}  // namespace

CheckReport check_outputs(const WorkloadSpec& spec, const app::ServiceClient& client,
                          const std::vector<Record>& records,
                          const std::vector<std::uint64_t>& executed) {
  CheckReport report;
  const Record* sample = nullptr;
  for (const Record& record : records) {
    if (!record.receipt) continue;
    if (!client.verify_receipt(record.request_id, record.body, *record.receipt)) {
      ++report.bad_receipts;
    } else if (sample == nullptr) {
      sample = &record;
    }
  }
  if (report.bad_receipts > 0) {
    report.fail(std::to_string(report.bad_receipts) + " receipts failed verify_receipt");
  }
  // Planted faults: a receipt with a tampered signature, and one whose
  // reply was swapped, must both fail verification.
  if (sample != nullptr) {
    app::ServiceClient::Receipt forged = *sample->receipt;
    forged.signature = forged.signature + crypto::BigInt::from_u64(1);
    if (client.verify_receipt(sample->request_id, sample->body, forged)) {
      report.fail("verify_receipt accepted a forged signature");
    }
    forged = *sample->receipt;
    forged.reply.push_back(0);
    if (client.verify_receipt(sample->request_id, sample->body, forged)) {
      report.fail("verify_receipt accepted a receipt for another reply");
    }
  } else {
    report.fail("no verified receipt to check");
  }

  if (spec.service == Service::kDirectory) {
    check_directory(records, report);
  } else {
    check_notary(records, report);
  }

  // After draining, every replica executed every request exactly once.
  for (std::size_t id = 0; id < executed.size(); ++id) {
    if (executed[id] != records.size()) {
      report.fail("replica " + std::to_string(id) + " executed " + std::to_string(executed[id]) +
                  " of " + std::to_string(records.size()) + " requests");
    }
  }
  return report;
}

}  // namespace sintra::servicebench
