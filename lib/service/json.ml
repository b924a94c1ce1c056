include Core.Json
