// The svc:: spelling of support/json.hpp, kept for code not yet moved over.
#pragma once

#include "support/json.hpp"

namespace mcs::svc {
using support::Json;
using support::json_escape;
using support::JsonError;
using support::parse_json;
}  // namespace mcs::svc
