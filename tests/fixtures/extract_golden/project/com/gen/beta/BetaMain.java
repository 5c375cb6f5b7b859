package com.gen.beta;

import com.gen.beta.BetaAux;

public class BetaMain {
  public void run(String value) {
    log.info("close" + h0(value));
  }

  public static String h0(String a) {
    if ("bind".equals(a)) {
      return "open_";
    } else {
      return a + a.trim() + "retry_";
    }
  }

  public static String h1(String a, String b) {
    if ("commit".equals(b)) {
      return "drain-" + h0("probe: ");
    } else if (b.startsWith("close")) {
      return b + h0(b) + "retry_";
    } else {
      return h0(b);
    }
  }
}
