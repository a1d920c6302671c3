// Reference for landmark::WebEcosystem::websites_in_zip: the linear scan
// over every website, done once for all zips. Each website's ID is filed
// under its recorded zip in websites() order (ascending ID), so in_zip(z)
// is exactly what a scan for z returns. Test-only.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "landmark/ecosystem.h"

namespace geoloc::testing {

class ZipScan {
 public:
  explicit ZipScan(const landmark::WebEcosystem& eco) {
    for (const landmark::Website& w : eco.websites()) {
      by_zip_[w.recorded_zip].push_back(w.id);
    }
  }

  /// The websites whose recorded zip is `zip`, in ID order.
  [[nodiscard]] const std::vector<landmark::WebsiteId>& in_zip(
      const std::string& zip) const {
    static const std::vector<landmark::WebsiteId> kNone;
    const auto it = by_zip_.find(zip);
    return it == by_zip_.end() ? kNone : it->second;
  }

  /// Every recorded zip with its websites.
  [[nodiscard]] const std::map<std::string, std::vector<landmark::WebsiteId>>&
  by_zip() const noexcept {
    return by_zip_;
  }

 private:
  std::map<std::string, std::vector<landmark::WebsiteId>> by_zip_;
};

}  // namespace geoloc::testing
